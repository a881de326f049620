"""Topology and physical address layout.

From the top bit down, an address holds the home socket, the rest of the
tag, the set index and the line offset: the tag is every bit above the set
index. `CoherenceSystem` decodes and range-checks each access's address.
"""

from dataclasses import dataclass, fields
from functools import cached_property


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
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{field.name} must be an int, got {value!r}")
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

