"""Topology and physical address layout, and the base of the config records.

From the top bit down, an address holds the home socket, the rest of the
tag, the set index and the line offset: the tag is every bit above the set
index. `decode` splits checked addresses into set indices and tags.
"""

from functools import wraps
from itertools import repeat
from operator import and_, rshift
from typing import Iterable, Iterator, NamedTuple


class ConfigError(ValueError):
    """Raised for invalid topology parameters or out-of-range addresses."""


class Checked:
    """Base of a config record, listed ahead of the `NamedTuple` of its
    fields: `class Config(Checked, _ConfigFields)`. Every way of building
    one checks it with the class's `_check`: the constructor, `_make`,
    `_replace`, and copy and pickle, which call `__new__`."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        build = cls.__new__  # the NamedTuple's, whose signature is the fields'

        @wraps(build)
        def __new__(cls, *args, **kwargs):
            self = build(cls, *args, **kwargs)
            self._check()
            return self

        cls.__new__ = staticmethod(__new__)

    @classmethod
    def _make(cls, iterable):
        # the NamedTuple's own `_make`, which `_replace` calls, skips __new__
        return cls(*iterable)


def check_ints(config: tuple, names, *, optional: bool = False) -> None:
    """Refuse each field of `config` in `names` whose value is not an int
    (a bool is not one); with `optional`, None passes too."""
    for name in names:
        value = getattr(config, name)
        if optional and value is None:
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an int, got {value!r}")


def _log2_exact(n: int, name: str) -> int:
    if n < 1 or n & (n - 1):
        raise ConfigError(f"{name} must be a power of two, got {n}")
    return n.bit_length() - 1


class _TopologyFields(NamedTuple):
    num_sockets: int = 2
    cores_per_socket: int = 1
    llc_sets: int = 16
    llc_assoc: int = 4
    line_size_bytes: int = 64
    address_width: int = 32


class TopologyConfig(Checked, _TopologyFields):
    __slots__ = ()

    def _check(self) -> None:
        check_ints(self, self._fields)
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

    @property
    def socket_bits(self) -> int:
        return self.num_sockets.bit_length() - 1

    @property
    def set_bits(self) -> int:
        return self.llc_sets.bit_length() - 1

    @property
    def offset_bits(self) -> int:
        return self.line_size_bytes.bit_length() - 1


def decode(blocks: Iterable[tuple], topo: TopologyConfig) -> Iterator[tuple]:
    """(socket, ops, set, tag) column blocks of checked (socket, core, ops,
    addr) ones: the core is dropped, and builtins split the addresses."""
    offset, mask = repeat(topo.offset_bits), repeat(topo.llc_sets - 1)
    tag_shift = repeat(topo.offset_bits + topo.set_bits)
    for socket, _, ops, addr in blocks:
        yield (socket, ops, list(map(and_, map(rshift, addr, offset), mask)),
               list(map(rshift, addr, tag_shift)))
