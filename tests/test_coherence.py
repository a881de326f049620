import random
import re

import pytest

from numacache.address_map import ConfigError, TopologyConfig
from numacache.coherence import (
    LOCAL_DRAM,
    LOCAL_HIT,
    REMOTE_C2C,
    REMOTE_DRAM,
    CoherenceSystem,
)
from numacache.engine import PolicyConfig, PolicyKind
from numacache.replacement import MoesiState

import helpers

TOPO = TopologyConfig(num_sockets=2, llc_sets=4, llc_assoc=4,
                      line_size_bytes=64, address_width=32)

# top bit selects the home socket under this topology
HOME1 = 1 << 31


def system(policy=PolicyConfig()):
    return CoherenceSystem(TOPO, policy.thresholds(TOPO.llc_assoc))


def state_of(sys_, socket, addr):
    """The MoesiState of a socket's copy of addr, or None."""
    return sys_.columns[(addr >> 6) & 3][socket].get(addr >> 8)


def access(sys_, socket, op, addr, bias_enabled=False):
    """One access; its 7-slot count list, which counts it once at its
    source's slot and agrees with the returned missed flag."""
    count = [0] * 7
    missed = helpers.access(sys_, TOPO, socket, op, addr, count, bias_enabled)
    assert sum(count[:4]) == 1
    assert missed is (count[LOCAL_HIT] == 0)
    return count


def read(sys_, socket, addr, bias_enabled=False):
    return access(sys_, socket, "R", addr, bias_enabled)


def write(sys_, socket, addr, bias_enabled=False):
    return access(sys_, socket, "W", addr, bias_enabled)


def source(count):
    """The source slot an access's count list counts."""
    return count.index(1)


class TestRead:
    def test_cold_fill_local_home(self):
        sys_ = system()
        out = read(sys_, 0, 0x1000)
        assert source(out) == LOCAL_DRAM
        assert state_of(sys_, 0, 0x1000) is MoesiState.EXCLUSIVE

    def test_cold_fill_remote_home(self):
        sys_ = system()
        out = read(sys_, 0, HOME1 | 0x1000)
        assert source(out) == REMOTE_DRAM
        assert state_of(sys_, 0, HOME1 | 0x1000) is MoesiState.EXCLUSIVE

    def test_modified_supplier_becomes_owner(self):
        sys_ = system()
        write(sys_, 1, 0x1000)
        out = read(sys_, 0, 0x1000)
        assert source(out) == REMOTE_C2C
        assert state_of(sys_, 0, 0x1000) is MoesiState.REMOTE_SHARED
        assert state_of(sys_, 1, 0x1000) is MoesiState.OWNER

    def test_owner_supplier_stays_owner(self):
        sys_ = system()
        write(sys_, 1, 0x1000)
        read(sys_, 0, 0x1000)  # 1 -> Owner
        # evict socket 0's copy by filling its set, then re-read
        for i in range(1, 5):
            read(sys_, 0, 0x1000 + i * 0x100)
        assert state_of(sys_, 0, 0x1000) is None
        out = read(sys_, 0, 0x1000)
        assert source(out) == REMOTE_C2C
        assert state_of(sys_, 0, 0x1000) is MoesiState.REMOTE_SHARED
        assert state_of(sys_, 1, 0x1000) is MoesiState.OWNER

    def test_exclusive_supplier_degrades_to_plain_shared(self):
        sys_ = system()
        read(sys_, 1, 0x1000)  # Exclusive at socket 1
        out = read(sys_, 0, 0x1000)
        assert source(out) == REMOTE_C2C
        assert state_of(sys_, 0, 0x1000) is MoesiState.SHARED
        assert state_of(sys_, 1, 0x1000) is MoesiState.SHARED

    def test_only_shared_copies_memory_supplies(self):
        sys_ = system()
        read(sys_, 1, 0x1000)       # E at 1
        read(sys_, 0, 0x1000)       # E degrades, both S
        # evict socket 0's copy, then read from socket 0 again
        for i in range(1, 5):
            read(sys_, 0, 0x1000 + i * 0x100)
        out = read(sys_, 0, 0x1000)
        assert source(out) == LOCAL_DRAM
        assert state_of(sys_, 0, 0x1000) is MoesiState.SHARED

    def test_local_hit(self):
        sys_ = system()
        read(sys_, 0, 0x1000)
        out = read(sys_, 0, 0x1000)
        assert source(out) == LOCAL_HIT
        assert out[4] == 0  # no write-back


class TestWrite:
    def test_exclusive_upgrades_silently(self):
        sys_ = system()
        read(sys_, 0, 0x1000)
        out = write(sys_, 0, 0x1000)
        assert source(out) == LOCAL_HIT
        assert state_of(sys_, 0, 0x1000) is MoesiState.MODIFIED

    def test_upgrade_invalidates_remote_owner(self):
        sys_ = system()
        write(sys_, 1, 0x1000)
        read(sys_, 0, 0x1000)  # 0: Remote-Shared, 1: Owner
        out = write(sys_, 0, 0x1000)
        assert source(out) == LOCAL_HIT
        assert state_of(sys_, 0, 0x1000) is MoesiState.MODIFIED
        assert state_of(sys_, 1, 0x1000) is None

    def test_cold_write_remote_home(self):
        sys_ = system()
        out = write(sys_, 0, HOME1 | 0x2000)
        assert source(out) == REMOTE_DRAM
        assert state_of(sys_, 0, HOME1 | 0x2000) is MoesiState.MODIFIED

    def test_write_miss_remote_modified_supplies(self):
        sys_ = system()
        write(sys_, 1, 0x1000)
        out = write(sys_, 0, 0x1000)
        assert source(out) == REMOTE_C2C
        assert state_of(sys_, 1, 0x1000) is None

    def test_write_miss_shared_copies_invalidated(self):
        sys_ = system()
        read(sys_, 1, 0x1000)
        read(sys_, 0, 0x1000)
        out = write(sys_, 1, 0x1000)
        # socket 1 already holds it Shared -> upgrade hit
        assert source(out) == LOCAL_HIT
        assert state_of(sys_, 0, 0x1000) is None


def evict(sys_, socket, addr):
    """Read new lines into the set of addr, the LRU line of that set in
    `socket`, until the last read evicts it; return that read's count list."""
    for way in range(1, TOPO.llc_assoc + 1):
        assert state_of(sys_, socket, addr) is not None
        out = read(sys_, socket, addr + way * 0x100)  # same set
    assert state_of(sys_, socket, addr) is None
    return out


class TestEvict:
    def test_modified_writes_back_home(self):
        sys_ = system()
        addr = HOME1 | 0x1000
        write(sys_, 0, addr)
        assert evict(sys_, 0, addr)[4] == 1  # dirty: writes back to its home
        assert addr >> (TOPO.address_width - TOPO.socket_bits) == 1

    def test_shared_drops_silently(self):
        sys_ = system()
        read(sys_, 1, 0x1000)
        read(sys_, 0, 0x1000)
        assert evict(sys_, 0, 0x1000)[4] == 0  # no write-back
        assert state_of(sys_, 1, 0x1000) is MoesiState.SHARED

    def test_owner_eviction_leaves_stale_remote_shared(self):
        sys_ = system()
        write(sys_, 1, 0x1000)
        read(sys_, 0, 0x1000)  # 0: Remote-Shared, 1: Owner
        assert evict(sys_, 1, 0x1000)[4] == 1  # a write-back
        # the Remote-Shared state is stale by design
        assert state_of(sys_, 0, 0x1000) is MoesiState.REMOTE_SHARED


class TestInvariants:
    def test_fresh_system_clean(self):
        assert system().check_global_invariants() == []

    def test_random_trace_clean(self):
        sys_ = system(PolicyConfig(PolicyKind.BIASED_ALWAYS))
        rng = random.Random(42)
        biased = 0
        for _ in range(10_000):
            socket = rng.randrange(2)
            addr = rng.randrange(64) * 64 | (rng.randrange(2) << 31)
            op = read if rng.random() < 0.5 else write
            biased += op(sys_, socket, addr, bias_enabled=True)[5]  # bias events
        assert sys_.check_global_invariants() == []
        assert biased  # the bias fired

    def test_injected_double_owner_detected(self):
        sys_ = system()
        write(sys_, 0, 0x1000)
        # corrupt: a second Modified copy of the same line at socket 1
        write(sys_, 1, 0x2000)
        lines = sys_.columns[0][1]
        lines[0x10] = lines.pop(0x20)
        violations = sys_.check_global_invariants()
        assert violations

    # socket 0 writes 0x1000 ("W") or reads it ("R", Exclusive), and socket 1
    # may read it after a write ("WR": 0 becomes Owner, 1 Remote-Shared);
    # then socket 1's copy is set to a state that breaks MOESI, or not
    # name -> (accesses, socket 1's corrupt state, violations)
    CROSS_SOCKET = {
        "me-with-other-copy": ("W", MoesiState.SHARED, [
            "line 0x1000: M/E at socket 0 coexists with other copies"]),
        "two-me-holders": ("W", MoesiState.EXCLUSIVE, [
            "line 0x1000: M/E at socket 0 coexists with other copies",
            "line 0x1000: multiple M/E holders"]),
        "two-owners": ("WR", MoesiState.OWNER, [
            "line 0x1000: multiple Owner holders"]),
        "owner-beside-non-shared": ("WR", MoesiState.MODIFIED, [
            "line 0x1000: M/E at socket 1 coexists with other copies",
            "line 0x1000: Owner coexists with a non-Shared copy"]),
        # a Remote-Shared copy counts as Shared: legal beside an Owner,
        # flagged beside a Modified or an Exclusive copy
        "remote-shared-beside-owner": ("WR", MoesiState.REMOTE_SHARED, []),
        "remote-shared-beside-modified": ("W", MoesiState.REMOTE_SHARED, [
            "line 0x1000: M/E at socket 0 coexists with other copies"]),
        "remote-shared-beside-exclusive": ("R", MoesiState.REMOTE_SHARED, [
            "line 0x1000: M/E at socket 0 coexists with other copies"]),
    }

    @pytest.mark.parametrize("case", list(CROSS_SOCKET))
    def test_cross_socket_corruption_detected(self, case):
        accesses, state, expected = self.CROSS_SOCKET[case]
        sys_ = system()
        for socket, op in enumerate(accesses):
            (write if op == "W" else read)(sys_, socket, 0x1000)
        assert sys_.check_global_invariants() == []
        sys_.columns[0][1][0x10] = state
        assert sys_.check_global_invariants() == expected

    def test_overfull_set_detected(self):
        sys_ = system()
        for i in range(4):
            read(sys_, 0, i * 0x100)
        # corrupt: a fifth line in a 4-way set
        sys_.columns[0][0][0x40] = MoesiState.SHARED
        assert sys_.check_global_invariants() == [
            "socket 0 set 0: 5 lines exceed associativity 4"
        ]

    def test_counter_out_of_range_detected(self):
        sys_ = system()  # thresholds (1, 2) at associativity 4
        sys_.counters[0][1][:] = [2, 0]
        sys_.counters[3][0][:] = [0, -1]
        sys_.counters[2][1][:] = [1, 3]
        # socket-major: every set of socket 0, then every set of socket 1
        assert sys_.check_global_invariants() == [
            "socket 0 set 3: remote-home counter -1 out of [0, 2]",
            "socket 1 set 0: local-home counter 2 out of [0, 1]",
            "socket 1 set 2: remote-home counter 3 out of [0, 2]",
        ]

    def test_address_out_of_range(self):
        with pytest.raises(ConfigError):
            read(system(), 0, 1 << 32)

    @pytest.mark.parametrize("op", ["X", "r", "RW", None])
    def test_unknown_op_changes_nothing(self, op):
        # socket 0's set 0 is full, its LRU line Remote-Shared: a read or a
        # write of a new line would evict with the bias on, and of a held
        # line would re-touch it
        sys_ = system(PolicyConfig(PolicyKind.BIASED_ALWAYS))
        write(sys_, 1, 0x0)
        for i in range(4):
            read(sys_, 0, i * 0x100)

        def snapshot():  # the lines in LRU order, and the counters
            return ([[list(lines.items()) for lines in column]
                     for column in sys_.columns],
                    [[list(pair) for pair in column] for column in sys_.counters])

        before = snapshot()
        for addr in (0x400, 0x100):  # a new line, a held one
            count = [0] * 7
            message = f"^record 0: op {re.escape(repr(op))} is not R or W$"
            with pytest.raises(ConfigError, match=message):
                helpers.access(sys_, TOPO, 0, op, addr, count, True)
            assert count == [0] * 7
            assert snapshot() == before
