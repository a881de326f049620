"""Trace parsing/formatting and deterministic synthetic workload generators.

Trace format, one record per line:

    <socket:uint> <core:uint> <R|W> <0x-hex-address>

Fields are ASCII: decimal socket and core, hex digits after `0x`.

`#` starts a comment line; blank lines are ignored.
"""

import enum
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .address_map import ConfigError, TopologyConfig


class TraceError(ValueError):
    """Malformed or out-of-range trace input."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Op(enum.Enum):
    READ = "R"
    WRITE = "W"


@dataclass(frozen=True)
class AccessRecord:
    socket: int
    core: int
    op: Op
    addr: int
    seq: int


def parse_trace(
    lines: Iterable[str], topo: Optional[TopologyConfig] = None
) -> Iterator[AccessRecord]:
    """Stream records from trace text, validating against topo if given."""
    seq = 0
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 4:
            raise TraceError(lineno, f"expected 4 fields, got {len(parts)}")
        if not text.isascii():
            raise TraceError(lineno, f"non-ASCII character in {text!r}")
        if not (parts[0].isdigit() and parts[1].isdigit()):
            raise TraceError(lineno, f"bad socket/core in {text!r}")
        socket = int(parts[0])
        core = int(parts[1])
        if parts[2] not in ("R", "W"):
            raise TraceError(lineno, f"operation must be R or W, got {parts[2]!r}")
        # int() would also accept `_` digit separators
        if not parts[3].lower().startswith("0x") or "_" in parts[3]:
            raise TraceError(lineno, f"address must be 0x-prefixed hex, got {parts[3]!r}")
        try:
            addr = int(parts[3], 16)
        except ValueError:
            raise TraceError(lineno, f"bad address {parts[3]!r}") from None
        if topo is not None:
            if socket >= topo.num_sockets:
                raise TraceError(lineno, f"socket {socket} out of range")
            if core >= topo.cores_per_socket:
                raise TraceError(lineno, f"core {core} out of range")
            if addr >> topo.address_width:
                raise TraceError(lineno, f"address {addr:#x} exceeds address width")
        yield AccessRecord(socket, core, Op(parts[2]), addr, seq)
        seq += 1


def format_trace(records: Iterable[AccessRecord]) -> Iterator[str]:
    """Inverse of parse_trace (modulo seq renumbering)."""
    for rec in records:
        yield f"{rec.socket} {rec.core} {rec.op.value} 0x{rec.addr:x}"


class GeneratorKind(enum.Enum):
    PRODUCER_CONSUMER = "producer-consumer"
    MIGRATORY = "migratory"
    PRIVATE_STREAM = "private"
    SHARED_READ_ONLY = "shared-readonly"


@dataclass
class GeneratorSpec:
    kind: GeneratorKind
    working_set_lines: int = 8
    iterations: int = 4
    sharing_socket_pairs: list = field(default_factory=lambda: [(0, 1)])
    rng_seed: int = 0
    # pin the home node of generated lines by forcing the top address bits;
    # None leaves PRIVATE_STREAM homes local and everything else at socket 0
    home_socket: Optional[int] = None

    def __post_init__(self):
        if self.working_set_lines < 1 or self.iterations < 1:
            raise ValueError("working_set_lines and iterations must be >= 1")


def _line_addr(index: int, home: int, topo: TopologyConfig) -> int:
    body_bits = topo.address_width - topo.socket_bits - topo.offset_bits
    if index >> body_bits:
        raise ConfigError("working set does not fit in the address space")
    addr = index << topo.offset_bits
    if topo.num_sockets > 1:
        addr |= home << (topo.address_width - topo.socket_bits)
    return addr


def generate(spec: GeneratorSpec, topo: TopologyConfig) -> list[AccessRecord]:
    """Deterministic access sequence for (spec, topo)."""
    sockets = range(topo.num_sockets)
    if spec.home_socket is not None and spec.home_socket not in sockets:
        raise ConfigError(f"home_socket {spec.home_socket} out of range")
    for a, b in spec.sharing_socket_pairs:
        if a not in sockets or b not in sockets:
            raise ConfigError(f"socket pair ({a}, {b}) out of range")

    rng = random.Random(spec.rng_seed)
    records: list[AccessRecord] = []

    def emit(socket: int, op: Op, addr: int) -> None:
        core = rng.randrange(topo.cores_per_socket)
        records.append(AccessRecord(socket, core, op, addr, len(records)))

    default_home = spec.home_socket if spec.home_socket is not None else 0
    kind = spec.kind

    if kind is GeneratorKind.PRODUCER_CONSUMER:
        for _ in range(spec.iterations):
            for pi, (producer, consumer) in enumerate(spec.sharing_socket_pairs):
                for l in range(spec.working_set_lines):
                    addr = _line_addr(pi * spec.working_set_lines + l, default_home, topo)
                    emit(producer, Op.WRITE, addr)
                    emit(consumer, Op.READ, addr)
    elif kind is GeneratorKind.MIGRATORY:
        for _ in range(spec.iterations):
            for socket in range(topo.num_sockets):
                for l in range(spec.working_set_lines):
                    addr = _line_addr(l, default_home, topo)
                    emit(socket, Op.READ, addr)
                    emit(socket, Op.WRITE, addr)
    elif kind is GeneratorKind.PRIVATE_STREAM:
        for _ in range(spec.iterations):
            for socket in range(topo.num_sockets):
                home = spec.home_socket if spec.home_socket is not None else socket
                for l in range(spec.working_set_lines):
                    addr = _line_addr(socket * spec.working_set_lines + l, home, topo)
                    emit(socket, Op.READ, addr)
    elif kind is GeneratorKind.SHARED_READ_ONLY:
        init_socket = spec.sharing_socket_pairs[0][0] if spec.sharing_socket_pairs else 0
        for l in range(spec.working_set_lines):
            emit(init_socket, Op.WRITE, _line_addr(l, default_home, topo))
        for _ in range(spec.iterations):
            for socket in range(topo.num_sockets):
                for l in range(spec.working_set_lines):
                    emit(socket, Op.READ, _line_addr(l, default_home, topo))
    else:  # pragma: no cover
        raise ValueError(f"unknown generator kind {kind}")
    return records
