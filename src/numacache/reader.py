"""Read a trace ahead of the simulation, in a forked reader process.

The main process takes the first _FORK_AFTER blocks of records itself.
When the source goes on past them and a second CPU is usable, one forked
reader process iterates it on and sends each block down a pipe as one
message: a 4-byte length, then the `marshal` bytes of (kind, payload).
A block of records travels as columns (socket, core, ops, addr), its op
letters, R and W, joined into one string; the main process zips them back
into (socket, core, op, addr) tuples without running Python code per
record. The last message is the end or the error that stopped the source.
"""

import marshal
import os
import struct
import sys
from contextlib import ExitStack
from itertools import chain, islice
from typing import Iterator

from .workload import _BLOCK, TraceError


def read_ahead(records: Iterator, files: ExitStack) -> Iterator:
    """The (socket, core, op, addr) tuples of `records`, then the
    TraceError or OSError that stopped it, read ahead by a reader process
    that lives until `files` closes."""
    return chain.from_iterable(_blocks(records, files))


# blocks taken in process before a reader is forked. A fork, with its
# pipe, copy-on-write faults and reaping, cost about 6 ms on a 2-vCPU VM,
# about what parsing these 4096 records costs: a trace that ends soon
# after them loses about that much, one three times as long gains.
_FORK_AFTER = 8
# a message's length, ahead of its marshal bytes
_HEADER = struct.Struct("<I")


def _blocks(records: Iterator, files: ExitStack) -> Iterator:
    """`records` a block at a time, each an iterable of tuples; the error
    that stops the source comes after the records before it.

    The first _FORK_AFTER blocks are taken in process. A source that goes
    on past them is read on by a reader process, which `files` kills and
    reaps, if `_can_fork()`; otherwise every block is taken in process.
    The fork is safe because the caller runs no other thread.
    """
    taken = 0
    while True:
        block, error = _take(records)
        yield block
        if error is not None:
            raise error
        if len(block) < _BLOCK:  # the source has ended
            return
        taken += 1
        if taken == _FORK_AFTER and _can_fork():
            break
    r, w = os.pipe()
    pipe = files.enter_context(os.fdopen(r, "rb"))
    with os.fdopen(w, "wb") as out:
        pid = os.fork()
        if pid == 0:  # the reader process: it never returns into the caller
            status = 1
            try:
                pipe.close()  # so its writes fail once this process is gone
                _ship(records, out)
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
        if kind == "columns":
            socket, core, ops, addr = payload
            yield zip(socket, core, ops, addr)
        elif kind == "trace error":
            raise TraceError(*payload)
        elif kind == "io error":
            raise OSError(payload)
        else:
            return


def _can_fork() -> bool:
    """Whether a reader process can run beside this one: `os.fork` exists
    and this process may use more than one CPU."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _take(records: Iterator) -> tuple:
    """The next _BLOCK records of `records`, fewer at its end, and the
    TraceError or OSError that cut them short, or None."""
    block = []
    try:
        block.extend(islice(records, _BLOCK))  # keeps what came first
    except (TraceError, OSError) as exc:
        return block, exc
    return block, None


def _ship(records: Iterator, out) -> None:
    """The reader process's work: send each block of `records` as columns,
    op letters joined into one string, then the end or the source's error."""
    while True:
        block, error = _take(records)
        if block:
            socket, core, ops, addr = zip(*block)
            _send(out, ("columns", (socket, core, "".join(ops), addr)))
        if error is not None or len(block) < _BLOCK:
            break
    if error is None:
        _send(out, ("end", None))
    elif isinstance(error, TraceError):
        _send(out, ("trace error", (error.lineno, error.message)))
    else:  # an OSError: its text is all that the CLI reports of it
        _send(out, ("io error", str(error)))


def _send(out, message) -> None:
    data = marshal.dumps(message)
    out.write(_HEADER.pack(len(data)) + data)
    out.flush()


def _receive(pipe) -> tuple:
    """The reader process's next (kind, payload) message."""
    header = pipe.read(_HEADER.size)
    if len(header) == _HEADER.size:
        size, = _HEADER.unpack(header)
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
