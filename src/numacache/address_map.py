"""Physical address decomposition: home node, set index, tag."""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable


class ConfigError(ValueError):
    """Raised for invalid topology parameters or out-of-range addresses."""


def _log2_exact(n: int, name: str) -> int:
    if n < 1 or n & (n - 1):
        raise ConfigError(f"{name} must be a power of two, got {n}")
    return n.bit_length() - 1


@dataclass(frozen=True)
class TopologyConfig:
    num_sockets: int = 2
    cores_per_socket: int = 1
    llc_sets: int = 16
    llc_assoc: int = 4
    line_size_bytes: int = 64
    address_width: int = 32

    def __post_init__(self):
        _log2_exact(self.num_sockets, "num_sockets")
        _log2_exact(self.llc_sets, "llc_sets")
        _log2_exact(self.line_size_bytes, "line_size_bytes")
        if self.cores_per_socket < 1:
            raise ConfigError("cores_per_socket must be >= 1")
        if self.llc_assoc < 2:
            raise ConfigError("llc_assoc must be >= 2")
        if self.socket_bits + self.set_bits + self.offset_bits > self.address_width:
            raise ConfigError(
                "socket, set, and line-offset bits exceed the address width"
            )

    @cached_property
    def socket_bits(self) -> int:
        return self.num_sockets.bit_length() - 1

    @cached_property
    def set_bits(self) -> int:
        return self.llc_sets.bit_length() - 1

    @cached_property
    def offset_bits(self) -> int:
        return self.line_size_bytes.bit_length() - 1


def decoder(topo: TopologyConfig) -> Callable[[int], tuple[int, int]]:
    """`addr -> (set index, tag)` for `topo`, with its shifts bound once.

    This is the one range check of an address: it raises ConfigError for
    an address outside the address width. The tag is every bit above the
    set index, so the home bits are part of it, and the line address and
    home socket follow from (set index, tag).
    """
    width, offset_bits = topo.address_width, topo.offset_bits
    set_mask, tag_shift = topo.llc_sets - 1, offset_bits + topo.set_bits

    def set_and_tag(addr: int) -> tuple[int, int]:
        if addr < 0 or addr >> width:
            raise ConfigError(f"address {addr:#x} does not fit in {width} bits")
        return (addr >> offset_bits) & set_mask, addr >> tag_shift

    return set_and_tag


def decode(addr: int, topo: TopologyConfig) -> tuple[int, int, int, int]:
    """(line address, set index, tag, home socket) of an address.

    The line address has the low line-offset bits masked off. The home
    socket, whose DRAM backs the line, is named by the topmost address
    bits (always 0 with a single socket).
    """
    set_id, tag = decoder(topo)(addr)
    return (
        addr & -topo.line_size_bytes,
        set_id,
        tag,
        addr >> (topo.address_width - topo.socket_bits),
    )
