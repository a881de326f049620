"""Read a trace ahead of the simulation, in a forked reader process.

The main process takes the first column blocks of the source itself.
When the source goes on past them and a second CPU is usable, one forked
reader process iterates it on and sends each block down a pipe as it is,
in one message: a 4-byte length, then the `marshal` bytes of (kind,
payload). The last message is the end or the error that stopped it.
"""

import marshal
import os
import sys
from contextlib import ExitStack
from typing import Iterator

from .workload import _BLOCK, TraceError


# records taken in process, in _FORK_AFTER blocks of _BLOCK, before a reader
# is forked. A fork, with its pipe, copy-on-write faults and reaping, cost
# about 6 ms on a 2-vCPU VM, about what parsing these 4096 records costs: a
# trace that ends soon after them loses about that much, one three times as
# long gains.
_FORK_AFTER = 8
# the size in bytes of a message's length, which precedes its marshal bytes
_HEADER = 4


def read_ahead(blocks: Iterator, files: ExitStack) -> Iterator:
    """The column blocks of `blocks`, then the TraceError or OSError that
    stopped it. Past the first _FORK_AFTER * _BLOCK records a reader process,
    which `files` kills and reaps, reads on if `_can_fork()`; the fork is
    safe, as the caller runs no other thread."""
    taken = 0
    for block in blocks:
        yield block
        taken += len(block[0])
        if taken >= _FORK_AFTER * _BLOCK and _can_fork():
            break
    else:  # the source has ended in process
        return
    r, w = os.pipe()
    pipe = files.enter_context(os.fdopen(r, "rb"))
    with os.fdopen(w, "wb") as out:
        pid = os.fork()
        if pid == 0:  # the reader process: it never returns into the caller
            status = 1
            try:
                pipe.close()  # so its writes fail once this process is gone
                _ship(blocks, out)
                status = 0
            except BrokenPipeError:  # the main process is gone
                pass
            except Exception:  # a fault of the source: show where it was
                import traceback
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(status)
    files.callback(_stop, pid)
    while True:
        kind, payload = _receive(pipe)
        if kind == "block":
            yield payload
        elif kind == "trace error":
            raise TraceError(*payload)
        elif kind == "io error":
            raise OSError(payload)
        else:
            return


def _can_fork() -> bool:
    """Whether a reader process can run beside this one: `os.fork` exists
    and this process may use more than one CPU."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return hasattr(os, "fork") and cpus > 1


def _ship(blocks: Iterator, out) -> None:
    """The reader process's work: send each of `blocks` as it is, then the
    end or the source's error."""
    try:
        for block in blocks:
            _send(out, ("block", block))
    except BrokenPipeError:  # from `_send`: the main process is gone
        raise
    except TraceError as exc:
        _send(out, ("trace error", (exc.lineno, exc.message)))
    except OSError as exc:  # its text is all that the CLI reports of it
        _send(out, ("io error", str(exc)))
    else:
        _send(out, ("end", None))


def _send(out, message) -> None:
    data = marshal.dumps(message)
    out.write(len(data).to_bytes(_HEADER, "little") + data)
    out.flush()


def _receive(pipe) -> tuple:
    """The reader process's next (kind, payload) message."""
    header = pipe.read(_HEADER)
    if len(header) == _HEADER:
        size = int.from_bytes(header, "little")
        data = pipe.read(size)
        if len(data) == size:
            return marshal.loads(data)
    raise OSError("the trace reader process ended before the trace did")


def _stop(pid: int) -> None:
    """Kill the reader process, if it still runs, and reap it."""
    # SIGKILL is 9 wherever there is fork; the `signal` module would add
    # to every command's start-up time. A reader that has exited is a
    # zombie until it is reaped, so the kill cannot miss.
    os.kill(pid, 9)
    os.waitpid(pid, 0)
