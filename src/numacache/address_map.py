"""Topology and physical address layout, and the checker of the config records.

From the top bit down, an address holds the home socket, the rest of the
tag, the set index and the line offset: the tag is every bit above the set
index. `decode` splits checked addresses into set indices and tags.
"""

from functools import wraps
from math import isfinite
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


class ConfigError(ValueError):
    """Raised for invalid topology parameters or out-of-range addresses."""


def is_int(value) -> bool:
    """Whether `value` is an int; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


SocketPairs = Sequence[tuple[int, int]]

# each kind of config field, by its annotation -> (test, message); an Enum
# field's test is membership
_KINDS = {
    int: (is_int, "{name} must be an int, got {value!r}"),
    Optional[int]: (lambda value: value is None or is_int(value),
                    "{name} must be an int, got {value!r}"),
    # an int of any size passes: only a float can be infinite or nan
    float: (lambda value: is_int(value) or isinstance(value, float) and isfinite(value),
            "{name} must be a finite number, got {value!r}"),
    bool: (lambda value: isinstance(value, bool), "{name} must be a bool, got {value!r}"),
    SocketPairs: (lambda value: type(value) in (tuple, list) and all(
        type(pair) in (tuple, list) and len(pair) == 2 and all(map(is_int, pair))
        for pair in value), "{name} must hold int pairs, got {value!r}"),
}


def _kind(hint) -> tuple:
    """(test, message) of a field annotated `hint`."""
    if hint in _KINDS:
        return _KINDS[hint]
    words = "".join(f" {c.lower()}" if c.isupper() else c for c in hint.__name__)
    return (lambda value: isinstance(value, hint)), f"unknown{words} {{value!r}}"


def checked(cls):
    """Make the `NamedTuple` `cls` a config record: every way of building
    one (the constructor, `_make`, `_replace`, and copy and pickle, which
    call `__new__`) refuses a field whose value is not of its annotation's
    kind, in field order, then runs the class's `_check` of ranges, if it
    has one."""
    kinds = [(name, *_kind(hint)) for name, hint in cls.__annotations__.items()]
    build, rules = cls.__new__, getattr(cls, "_check", None)

    @wraps(build)  # keeps the fields' signature
    def __new__(cls, *args, **kwargs):
        self = build(cls, *args, **kwargs)
        for (name, test, message), value in zip(kinds, self):
            if not test(value):
                raise ConfigError(message.format(name=name, value=value))
        if rules:
            rules(self)
        return self

    cls.__new__ = staticmethod(__new__)
    # the NamedTuple's own `_make`, which `_replace` calls, skips __new__
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


def _log2_exact(n: int, name: str) -> int:
    if n < 1 or n & (n - 1):
        raise ConfigError(f"{name} must be a power of two, got {n}")
    return n.bit_length() - 1


@checked
class TopologyConfig(NamedTuple):
    num_sockets: int = 2
    cores_per_socket: int = 1
    llc_sets: int = 16
    llc_assoc: int = 4
    line_size_bytes: int = 64
    address_width: int = 32

    def _check(self) -> None:
        _log2_exact(self.num_sockets, "num_sockets")
        _log2_exact(self.llc_sets, "llc_sets")
        _log2_exact(self.line_size_bytes, "line_size_bytes")
        if self.cores_per_socket < 1:
            raise ConfigError("cores_per_socket must be >= 1")
        if self.llc_assoc < 2:
            raise ConfigError("llc_assoc must be >= 2")
        if self.address_width > 1024:  # the parser and generator build 1 << width
            raise ConfigError("address_width must be <= 1024")
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
    addr) ones: the core is dropped, and comprehensions split the addresses."""
    offset, mask = topo.offset_bits, topo.llc_sets - 1
    tag_shift = topo.offset_bits + topo.set_bits
    for socket, _, ops, addr in blocks:
        yield (socket, ops, [a >> offset & mask for a in addr],
               [a >> tag_shift for a in addr])
