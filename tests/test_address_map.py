import pytest
from hypothesis import given, strategies as st

from numacache import address_map
from numacache.address_map import ConfigError, TopologyConfig
from numacache.coherence import CoherenceSystem

from helpers import access

TOPO8 = TopologyConfig(num_sockets=4, llc_sets=1, llc_assoc=2,
                       line_size_bytes=4, address_width=8)


def decode(addr, topo):
    """(line address, set index, tag, home socket) of addr: set and tag
    from where a read by socket 0 installs it, after the decode step that
    also range-checks the address; the line address masks off the line
    offset and the top bits name the home."""
    system = CoherenceSystem(topo, (1, 1))
    access(system, topo, 0, "R", addr, [0] * 7)
    [(set_id, tag)] = [(set_id, tag) for set_id, column in enumerate(system.columns)
                       for tag in column[0]]
    home = addr >> (topo.address_width - topo.socket_bits)
    return addr & -topo.line_size_bytes, set_id, tag, home


def home_node(addr, topo):
    return decode(addr, topo)[3]


def set_index(addr, topo):
    return decode(addr, topo)[1]


def rebuild_line_address(tag, set_id, topo):
    """Line address from (tag, set index), as the tag definition implies."""
    return (tag << (topo.offset_bits + topo.set_bits)) | (set_id << topo.offset_bits)


def test_home_node_top_bits():
    assert home_node(0b11000000, TOPO8) == 3


def test_home_node_single_socket():
    topo = TopologyConfig(num_sockets=1, llc_sets=4, llc_assoc=2,
                          line_size_bytes=4, address_width=8)
    for addr in (0, 0x7F, 0xFF):
        assert home_node(addr, topo) == 0


def test_home_node_two_sockets():
    topo = TopologyConfig(num_sockets=2, llc_sets=4, llc_assoc=2,
                          line_size_bytes=4, address_width=8)
    assert home_node(0x80, topo) == 1
    assert home_node(0x7F, topo) == 0


def test_set_index_examples():
    topo = TopologyConfig(num_sockets=2, llc_sets=4, llc_assoc=2,
                          line_size_bytes=64, address_width=32)
    assert set_index(0x00, topo) == 0
    assert set_index(0x40, topo) == 1
    # hand oracle: (0x140 >> 6) mod 4 == 1
    assert set_index(0x140, topo) == 1
    # the whole decode of 0x80001234: line, set 0x48 mod 4, tag, home
    assert decode(0x80001234, topo) == (0x80001200, 0, 0x80001234 >> 8, 1)


def test_tag_roundtrip_corners():
    topo = TopologyConfig()
    for addr in (0x00, (1 << topo.address_width) - 1):
        line, set_id, tag, _ = decode(addr, topo)
        assert rebuild_line_address(tag, set_id, topo) == line


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_tag_roundtrip_random(addr):
    topo = TopologyConfig()
    line, set_id, tag, _ = decode(addr, topo)
    assert rebuild_line_address(tag, set_id, topo) == line
    assert line == addr & ~(topo.line_size_bytes - 1)


@given(st.integers(min_value=0, max_value=(1 << 32) - 1),
       st.integers(min_value=0, max_value=63))
def test_same_line_same_decomposition(base, offset):
    topo = TopologyConfig()
    a = decode(base, topo)[0]
    b = min(a + offset, (1 << 32) - 1)
    assert decode(a, topo) == decode(b, topo)


@st.composite
def topologies_and_blocks(draw):
    """A topology up to 1 024 address bits wide, and checked (socket, core,
    ops, addr) column blocks of 1 to 512 records for it."""
    socket_bits, set_bits, offset_bits = (draw(st.integers(0, top)) for top in (3, 12, 8))
    topo = TopologyConfig(
        num_sockets=1 << socket_bits, llc_sets=1 << set_bits,
        line_size_bytes=1 << offset_bits,
        address_width=draw(st.integers(socket_bits + set_bits + offset_bits, 1024)))

    def column(top, size):
        return draw(st.lists(st.integers(0, top), min_size=size, max_size=size))

    return topo, [(column(topo.num_sockets - 1, size), [0] * size,
                   draw(st.text("RW", min_size=size, max_size=size)),
                   column((1 << topo.address_width) - 1, size))
                  for size in draw(st.lists(st.integers(1, 512), min_size=1, max_size=2))]


@given(topologies_and_blocks())
def test_decode_splits_whole_blocks(topo_blocks):
    topo, blocks = topo_blocks
    decoded = list(address_map.decode(blocks, topo))
    assert len(decoded) == len(blocks)
    for (socket, _, ops, addr), (socket_out, ops_out, sets, tags) in zip(blocks, decoded):
        assert (socket_out, ops_out) == (socket, ops)
        assert sets == [(a >> topo.offset_bits) % topo.llc_sets for a in addr]
        assert tags == [a >> (topo.offset_bits + topo.set_bits) for a in addr]


def test_home_node_surjective():
    topo = TopologyConfig(num_sockets=4, llc_sets=4, llc_assoc=2,
                          line_size_bytes=4, address_width=8)
    seen = {home_node(a, topo) for a in range(0, 256, 4)}
    assert seen == {0, 1, 2, 3}


def test_address_out_of_range():
    with pytest.raises(ConfigError):
        home_node(1 << 8, TOPO8)
    with pytest.raises(ConfigError):
        decode(-1, TOPO8)


@pytest.mark.parametrize("kwargs", [
    {"num_sockets": 3},
    {"llc_sets": 5},
    {"line_size_bytes": 48},
    {"llc_assoc": 1},
    {"cores_per_socket": 0},
    # 2 socket bits + 6 set bits + 2 offset bits > 8
    {"num_sockets": 4, "llc_sets": 64, "line_size_bytes": 4, "address_width": 8},
    # wider than the bound that keeps `1 << address_width` small
    {"address_width": 1025},
])
def test_invalid_topology(kwargs):
    base = dict(num_sockets=2, cores_per_socket=1, llc_sets=4, llc_assoc=2,
                line_size_bytes=64, address_width=32)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        TopologyConfig(**base)


@pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None])
@pytest.mark.parametrize("field", ["num_sockets", "cores_per_socket", "llc_sets",
                                   "llc_assoc", "line_size_bytes", "address_width"])
def test_non_integer_field_rejected(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be an int, got {value!r}$"):
        TopologyConfig(**{field: value})
