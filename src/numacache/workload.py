"""Reading, parsing and formatting traces; deterministic workload generators.

Trace format, one record per line:

    <socket:uint> <core:uint> <R|W> <0x-hex-address>

Fields are ASCII: decimal socket and core, hex digits after `0x`. `#`
starts a comment line; blank lines are ignored.
"""

import enum
import io
import marshal
import os
import random
import re
import sys
from contextlib import ExitStack, contextmanager
from itertools import chain, count, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .address_map import ConfigError, SocketPairs, TopologyConfig, checked, is_int


class TraceError(ValueError):
    """Malformed or out-of-range trace input."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message


# lines read per block; a block of canonical records takes the fast path
_BLOCK = 512

# one canonical record line: single spaces, `R` or `W`, lower-case `0x`
_RECORD = r"[0-9]+ [0-9]+ [RW] 0x[0-9a-fA-F]+\n"
# a block's lines joined by tabs, every one canonical; a tab is whitespace
# to `str.split` but no part of a record, so a match holding one record per
# element proves that each element is exactly one canonical line
_CANONICAL = re.compile(f"{_RECORD}(?:\t{_RECORD})*", re.A).fullmatch
# the byte of each ASCII digit -> its value
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def parse_blocks(lines: Iterable[str], topo: TopologyConfig) -> Iterator[tuple]:
    """Stream trace text as blocks of records, each checked against topo.

    A block holds the records of up to _BLOCK lines as columns (socket,
    core, ops, addr), the op letters, R and W, joined into one string:
    `zip(*block)` gives its (socket, core, op, addr) tuples. A block whose
    every element is one canonical record line, all in range, is matched
    by one regex and converted column by column with builtins. Any other
    is parsed line by line by `_parse_lines`, whose records before the
    first bad line make one block, then its error: the same records and
    errors either way. So is a block with a field too long for int().
    """
    sockets, cores = topo.num_sockets, topo.cores_per_socket
    addr_end = 1 << topo.address_width
    lines = iter(lines)
    blocks = iter(lambda: list(islice(lines, _BLOCK)), [])
    for first, block in zip(count(1, _BLOCK), blocks):  # first: its line number
        text = "\t".join(block)
        fields = text.split() if _CANONICAL(text) else ()
        if len(fields) == 4 * len(block):
            try:
                socket, core = _decimals(fields[0::4]), _decimals(fields[1::4])
            except ValueError:  # a field longer than int()'s limit
                pass
            else:
                addr = list(map(int, fields[3::4], repeat(16)))
                if max(socket) < sockets and max(core) < cores and max(addr) < addr_end:
                    yield socket, core, "".join(fields[2::4]), addr
                    continue
        yield from record_blocks(_parse_lines(block, topo, first), topo)


def _decimals(column: list[str]) -> list[int]:
    """The values of a column of ASCII decimal fields: one `bytes.translate`
    when every field is one digit, else int() of each."""
    digits = "".join(column)
    if len(digits) == len(column):
        return list(digits.encode().translate(_DIGIT_VALUES))
    return list(map(int, column))


def record_blocks(records: Iterable[tuple], topo: TopologyConfig) -> Iterator[tuple]:
    """(socket, core, op, addr) records as `parse_blocks`' column blocks, up
    to the first bad one; then its ConfigError, `record N: …`, N its index."""
    records = iter(records)
    for first in count(0, _BLOCK):  # first: the index of the block's first record
        block, problem = [], None
        try:
            block.extend(islice(records, _BLOCK))  # keeps what came first
        finally:
            if not _plain(block, topo):  # keep the records before its first bad one
                for seq, record in enumerate(block, first):
                    if problem := _record_problem(record, seq, topo):
                        del block[seq - first:]
                        break
            if block:
                socket, core, ops, addr = zip(*block)
                yield socket, core, "".join(ops), addr
            if problem:
                raise ConfigError(problem)
        if len(block) < _BLOCK:
            return


def _plain(block: list, topo: TopologyConfig) -> bool:
    """Whether builtins pass every record of `block`: exact types, in range."""
    try:
        socket, core, ops, addr = zip(*block, strict=True)
    except (TypeError, ValueError):  # no record, or one with other than 4 fields
        return False
    ints = socket + core + addr
    return ({*map(type, ints)} == {int} and {*map(type, ops)} == {str}
            and {*ops} <= {"R", "W"} and min(ints) >= 0
            and max(socket) < topo.num_sockets and max(core) < topo.cores_per_socket
            and not max(addr) >> topo.address_width)


def _record_problem(record, seq: int, topo: TopologyConfig) -> Optional[str]:
    """The error message for record `seq` if `topo` cannot hold it, else None."""
    try:
        socket, core, op, addr = record
    except (TypeError, ValueError):
        return f"record {seq}: expected (socket, core, op, addr), got {record!r}"
    for name, value in (("socket", socket), ("core", core), ("address", addr)):
        if not is_int(value):
            return f"record {seq}: {name} {value!r} is not an integer"
    width = topo.address_width
    if addr < 0 or addr >> width:
        return f"record {seq}: address {addr:#x} does not fit in {width} bits"
    # only a str is compared: another type's == may raise
    if type(op) is not str or op not in ("R", "W"):
        return f"record {seq}: op {op!r} is not R or W"
    for name, value, end in (("socket", socket, topo.num_sockets),
                             ("core", core, topo.cores_per_socket)):
        if not 0 <= value < end:
            return f"record {seq}: {name} {value} out of range"


def _parse_lines(
    lines: Iterable[str], topo: TopologyConfig, first: int = 1
) -> Iterator[tuple]:
    """Parse and check `lines` one at a time, numbering them from `first`."""
    sockets, cores = topo.num_sockets, topo.cores_per_socket
    # the most significant digits of an in-range socket and core
    s_width, c_width = len(str(sockets - 1)), len(str(cores - 1))
    for lineno, raw in enumerate(lines, start=first):
        text = raw.strip()
        if not text or text[0] == "#":
            continue
        parts = text.split()
        if len(parts) != 4:
            raise TraceError(lineno, f"expected 4 fields, got {len(parts)}")
        if not text.isascii():
            raise TraceError(lineno, f"non-ASCII character in {text!r}")
        s_text, c_text, op_text, a_text = parts
        if not (s_text.isdigit() and c_text.isdigit()):
            raise TraceError(lineno, f"bad socket/core in {text!r}")
        # without leading zeros ("0" is empty), a field with more digits
        # than any in range is out of range: int() has a length limit
        s_text, c_text = s_text.lstrip("0"), c_text.lstrip("0")
        socket = int(s_text or "0") if len(s_text) <= s_width else sockets
        core = int(c_text or "0") if len(c_text) <= c_width else cores
        if op_text not in ("R", "W"):
            raise TraceError(lineno, f"operation must be R or W, got {op_text!r}")
        # int() would also accept `_` digit separators
        if a_text[:2] not in ("0x", "0X") or "_" in a_text:
            raise TraceError(lineno, f"address must be 0x-prefixed hex, got {a_text!r}")
        try:
            addr = int(a_text, 16)
        except ValueError:
            raise TraceError(lineno, f"bad address {a_text!r}") from None
        if socket >= sockets:
            raise TraceError(lineno, f"socket {s_text or 0} out of range")
        if core >= cores:
            raise TraceError(lineno, f"core {c_text or 0} out of range")
        if addr >> topo.address_width:
            raise TraceError(lineno, f"address {addr:#x} exceeds address width")
        yield socket, core, op_text, addr


def format_trace(records: Iterable[tuple]) -> Iterator[str]:
    """The trace line, without its line end, of each (socket, core, op,
    addr) record, as `parse_blocks` reads it back."""
    for socket, core, op, addr in records:
        yield f"{socket} {core} {op} 0x{addr:x}"


@contextmanager
def open_trace(path: str) -> Iterator:
    """The trace file at `path`, or stdin (left open) for '-', as text. A
    byte that is not UTF-8 decodes to a surrogate, which `_parse_lines`
    reports as a non-ASCII character of its line, from a file or stdin
    alike and in any locale."""
    if path != "-":
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            yield fh
    elif sys.stdin is None:  # fd 0 was closed when the interpreter started
        raise OSError("stdin is closed")
    elif not hasattr(sys.stdin, "buffer"):  # a text stream over no bytes
        yield sys.stdin
    else:
        fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8",
                              errors="surrogateescape")
        try:
            yield fh
        finally:
            fh.detach()


# records taken in process, in _FORK_AFTER blocks of _BLOCK, before a reader
# is forked for the rest; it is forked before they are yielded, so it
# parses on while this process simulates them. On a 2-vCPU VM (Python
# 3.11), in process on prefixes of the share-adaptive seed-3 trace (40
# alternations each, medians), forking after them against never forking
# cost about 2 ms at 4096 and 6144 records, broke even near 10 000 and
# saved about 3 ms at 16 384 and 30 ms (27 %) at 73 728.
_FORK_AFTER = 8
_HEADER = 4  # the size in bytes of a message's length, before its marshal bytes


def read_ahead(blocks: Iterator, files: ExitStack) -> Iterator:
    """The column blocks of `blocks`, then the TraceError or OSError that
    stopped it, read ahead of the caller. Unless `_can_fork()`, this
    process reads them all. Else it first takes the blocks of
    _FORK_AFTER * _BLOCK records; a source that ends or fails within them
    forks nothing and gives its blocks, then its error. Past them, one
    reader process, forked before the blocks taken are yielded and killed
    and reaped by `files`, iterates `blocks` on and sends each block down a
    pipe as it is, in one message: a _HEADER-byte length, then the
    `marshal` bytes of (kind, payload). The last message is the end or the
    error that stopped it. The fork is safe, as the caller runs no other
    thread."""
    if not _can_fork():
        yield from blocks
        return
    head, taken = [], 0
    try:
        for block in blocks:
            head.append(block)
            taken += len(block[0])
            if taken >= _FORK_AFTER * _BLOCK:
                break
    except Exception:  # the source failed in process: its blocks come first
        yield from head
        raise
    if taken < _FORK_AFTER * _BLOCK:  # the source has ended in process
        yield from head
        return
    r, w = os.pipe()
    # a 64 KiB buffer takes several messages per read call
    pipe = files.enter_context(os.fdopen(r, "rb", 1 << 16))
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
    yield from head
    del head  # the taken blocks are not held for the rest of the run
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


class GeneratorKind(enum.Enum):
    PRODUCER_CONSUMER = "producer-consumer"
    MIGRATORY = "migratory"
    PRIVATE_STREAM = "private"
    SHARED_READ_ONLY = "shared-readonly"


@checked
class GeneratorSpec(NamedTuple):
    kind: GeneratorKind
    working_set_lines: int = 8
    iterations: int = 4
    # read by producer-consumer, and by shared-readonly, whose first pair's
    # first socket writes the lines; range-checked only where read
    sharing_socket_pairs: SocketPairs = ((0, 1),)
    rng_seed: int = 0
    # pin the home node of generated lines by forcing the top address bits;
    # None leaves PRIVATE_STREAM homes local and everything else at socket 0
    home_socket: Optional[int] = None

    def _check(self) -> None:
        if self.working_set_lines < 1 or self.iterations < 1:
            raise ValueError("working_set_lines and iterations must be >= 1")


def generate(spec: GeneratorSpec, topo: TopologyConfig) -> Iterator[tuple]:
    """Deterministic (socket, core, op, addr) records for (spec, topo),
    produced lazily; every input is checked before the first record, so
    iterating never fails.

    Each iteration walks the kind's groups (block, home, steps): for each
    line of block number `block`, of working_set_lines lines homed on
    socket `home`, each (socket, op) step accesses the line in turn.
    Shared-readonly opens with one group: its first pair's first socket
    writes the lines."""
    sockets, pairs, pinned = range(topo.num_sockets), spec.sharing_socket_pairs, spec.home_socket
    if pinned is not None and pinned not in sockets:
        raise ConfigError(f"home_socket {pinned} out of range")
    K = GeneratorKind
    shared = pinned or 0  # the home of all lines but private's, local unless pinned
    writer = pairs[0][0] if pairs else 0
    # kind -> (each pair socket its steps read, as (pair, socket); its
    # number of blocks; its opening groups; its groups of one iteration,
    # made as the loop reaches them, for a topology may have more sockets
    # than fit in memory)
    read, blocks, opening, groups = {
        K.PRODUCER_CONSUMER: ([(ab, end) for ab in pairs for end in ab], len(pairs), (),
                              lambda: ((i, shared, ((a, "W"), (b, "R")))
                                       for i, (a, b) in enumerate(pairs))),
        K.MIGRATORY: ((), 1, (), lambda: ((0, shared, ((s, "R"), (s, "W"))) for s in sockets)),
        K.PRIVATE_STREAM: ((), topo.num_sockets, (), lambda: (
            (s, s if pinned is None else pinned, ((s, "R"),)) for s in sockets)),
        K.SHARED_READ_ONLY: ([(ab, writer) for ab in pairs[:1]], 1,
                             [(0, shared, ((writer, "W"),))],
                             lambda: ((0, shared, ((s, "R"),)) for s in sockets)),
    }[spec.kind]
    for (a, b), end in read:
        if end not in sockets:
            raise ConfigError(f"socket pair ({a}, {b}) out of range")
    n = spec.working_set_lines
    if blocks * n > 1 << (topo.address_width - topo.socket_bits - topo.offset_bits):
        raise ConfigError("working set does not fit in the address space")

    rng, cores = random.Random(spec.rng_seed), topo.cores_per_socket
    offset, home_shift = topo.offset_bits, topo.address_width - topo.socket_bits
    rounds = chain((opening,), (groups() for _ in range(spec.iterations)))
    return ((socket, rng.randrange(cores), op, line << offset | home << home_shift)
            for round_groups in rounds for block, home, steps in round_groups
            for line in range(block * n, block * n + n) for socket, op in steps)
