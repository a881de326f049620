import random

import pytest
from hypothesis import given, strategies as st

from numacache.address_map import ConfigError, TopologyConfig
from numacache.coherence import CoherenceSystem
from numacache.engine import PolicyConfig, PolicyKind, run
from numacache.replacement import (BIAS_EVENT, COUNT_SLOTS, COUNTER_RESET, EXCLUSIVE, MODIFIED,
                                   REMOTE_SHARED, select_victim)

from helpers import access

# one set per socket, so every line of a socket competes for the same ways;
# `filled_system`'s topologies decode addresses as it does
ONE_SET = TopologyConfig(num_sockets=2, llc_sets=1, llc_assoc=4,
                         line_size_bytes=64, address_width=32)
THRESHOLDS = PolicyConfig().thresholds(4)  # the defaults at associativity 4: (1, 2)


def full_set(assoc, shared_tags=()):
    """Lines of a set holding tags 0..A-1 with tag 0 at MRU and tag A-1 at
    LRU; the tags in `shared_tags` are Remote-Shared, the others Exclusive."""
    return {tag: REMOTE_SHARED if tag in shared_tags else EXCLUSIVE
            for tag in reversed(range(assoc))}


def filled_system(lines, assoc=4):
    """Socket 0 has read lines 0..lines-1 in order, so line 0 is LRU."""
    topo = TopologyConfig(num_sockets=2, llc_sets=1, llc_assoc=assoc,
                          line_size_bytes=64, address_width=32)
    sys_ = CoherenceSystem(topo, PolicyConfig().thresholds(assoc))
    for i in range(lines):
        access(sys_, topo, 0, "R", i * 64, [0] * COUNT_SLOTS)
    return sys_


def select(lines, counters, home_class, thresholds):
    """`select_victim` on a full set whose LRU line is Remote-Shared, as
    `access` calls it: (victim, biased, counter reset), the last two
    read from the count list it adds into."""
    count = [0] * COUNT_SLOTS
    victim = select_victim(lines, next(iter(lines)), counters, home_class,
                           thresholds, count)
    assert not any(count[:BIAS_EVENT]) and count[BIAS_EVENT] + count[COUNTER_RESET] <= 1
    return victim, count[BIAS_EVENT], count[COUNTER_RESET]


def order(sys_, socket=0):
    """Tags of a socket's only set, least recently used first."""
    return list(sys_.columns[0][socket])


class TestTouch:
    def test_lru_to_mru(self):
        sys_ = filled_system(4)
        count = [0] * COUNT_SLOTS
        assert access(sys_, ONE_SET, 0, "R", 0, count) is False
        assert count == [1, 0, 0, 0, 0, 0, 0]  # one LOCAL_HIT
        assert order(sys_) == [1, 2, 3, 0]

    def test_touch_mru_is_noop(self):
        sys_ = filled_system(4)
        access(sys_, ONE_SET, 0, "R", 3 * 64, [0] * COUNT_SLOTS)
        assert order(sys_) == [0, 1, 2, 3]

    def test_random_touches_keep_permutation(self):
        sys_ = filled_system(8, assoc=8)
        rng = random.Random(1)
        for _ in range(1000):
            tag = rng.randrange(8)
            access(sys_, ONE_SET, 0, "R" if rng.random() < 0.5 else "W", tag * 64,
                   [0] * COUNT_SLOTS)
            assert sorted(order(sys_)) == list(range(8))
            assert order(sys_)[-1] == tag


class TestFill:
    def test_fill_remote_shared(self):
        sys_ = CoherenceSystem(ONE_SET, THRESHOLDS)
        access(sys_, ONE_SET, 1, "W", 0x1C0, [0] * COUNT_SLOTS)
        access(sys_, ONE_SET, 0, "R", 0x1C0, [0] * COUNT_SLOTS)  # Modified at socket 1 supplies
        lines = sys_.columns[0][0]
        assert lines[7] == REMOTE_SHARED
        assert list(lines)[-1] == 7

    def test_cold_fill_exclusive(self):
        sys_ = CoherenceSystem(ONE_SET, THRESHOLDS)
        access(sys_, ONE_SET, 1, "R", 0x1C0, [0] * COUNT_SLOTS)
        assert sys_.columns[0][1][7] == EXCLUSIVE

    def test_filled_line_ages_to_lru(self):
        sys_ = filled_system(4)
        # lines 1..3 filled after line 0; touch them again
        for tag in (1, 2, 3):
            access(sys_, ONE_SET, 0, "R", tag * 64, [0] * COUNT_SLOTS)
        assert order(sys_)[0] == 0


class TestSelectVictim:
    def test_reset_at_threshold(self):
        # A=16: defaults t_local=4, t_remote=8; remote-home counter at 8
        counters = [0, 8]
        cfg = PolicyConfig(PolicyKind.BIASED_ALWAYS)
        assert cfg.thresholds(16) == (4, 8)
        d = select(full_set(16, shared_tags={15}), counters, 1, cfg.thresholds(16))
        assert d == (15, False, True)
        assert counters == [0, 0]

    @pytest.mark.parametrize("op, state", [("R", EXCLUSIVE),
                                           ("W", MODIFIED)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_full_set_with_shared_lru_line(self, op, state, bias):
        # socket 0 holds tag 0 Remote-Shared at LRU when a fifth line comes
        # in. Bias on: tag 1, the least recent non-shared line, goes and
        # the local-home counter counts the bias event. Bias off: the LRU
        # line goes, unbiased, and the bias counters stay as they were
        sys_ = CoherenceSystem(ONE_SET, THRESHOLDS)
        access(sys_, ONE_SET, 1, "W", 0, [0] * COUNT_SLOTS)
        for tag in range(4):
            access(sys_, ONE_SET, 0, "R", tag * 64, [0] * COUNT_SLOTS)
        assert sys_.columns[0][0][0] == REMOTE_SHARED
        count = [0] * COUNT_SLOTS
        assert access(sys_, ONE_SET, 0, op, 4 * 64, count, bias) is True
        assert sys_.columns[0][0][4] is state
        if bias:
            assert order(sys_) == [0, 2, 3, 4]
            assert count == [0, 0, 1, 0, 0, 1, 0]  # LOCAL_DRAM, a bias event
            assert sys_.counters[0][0] == [1, 0]
        else:
            assert order(sys_) == [1, 2, 3, 4]
            assert count == [0, 0, 1, 0, 0, 0, 0]  # LOCAL_DRAM, no bias event
            assert sys_.counters[0][0] == [0, 0]

    def test_bias_protects_shared_local_home(self):
        # A=4, t_local=1, counter 0: LRU tag 3 shared, tag 2 is the least
        # recent non-shared line and gets evicted instead
        counters = [0, 0]
        d = select(full_set(4, shared_tags={3}), counters, 0, (1, 2))
        assert d == (2, True, False)
        assert counters == [1, 0]

    @pytest.mark.parametrize("kind, bias_events, hits", [
        (PolicyKind.LRU_ONLY, 0, 0),
        (PolicyKind.BIASED_ALWAYS, 1, 1),
    ])
    def test_only_biased_policies_protect_remote_shared(self, kind, bias_events, hits):
        # socket 0 holds tag 0 Remote-Shared at LRU when a fifth line comes
        # in, then reads tag 0 again: a hit only if the bias protected it
        trace = [(1, 0, "W", 0)] + [(0, 0, "R", tag * 64) for tag in (0, 1, 2, 3, 4, 0)]
        socket0 = run(trace, ONE_SET, PolicyConfig(kind)).to_dict()["per_socket"][0]
        assert (socket0["bias_events"], socket0["hits"]) == (bias_events, hits)

    def test_all_shared_fallback(self):
        counters = [0, 0]
        d = select(full_set(4, shared_tags={0, 1, 2, 3}), counters, 0, (1, 2))
        assert d == (3, False, False)
        assert counters == [0, 0]

    def test_nonshared_victim_is_deepest(self):
        d = select(full_set(8, shared_tags={7, 6, 5}), [0, 0], 1, (2, 4))
        assert d[0] == 4  # least recent among non-shared

    def test_threshold_bounds_validated(self):
        with pytest.raises(ValueError):
            PolicyConfig(t_local=0).thresholds(4)
        with pytest.raises(ValueError):
            PolicyConfig(t_remote=5).thresholds(4)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
    @pytest.mark.parametrize("field", ["t_local", "t_remote"])
    def test_non_integer_threshold_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an int, got {value!r}$"):
            PolicyConfig(PolicyKind.BIASED_ALWAYS, **{field: value})

    def test_thresholds_default_to_none(self):
        cfg = PolicyConfig(PolicyKind.BIASED_ALWAYS, t_local=None, t_remote=None)
        assert cfg == PolicyConfig(PolicyKind.BIASED_ALWAYS)
        assert cfg.thresholds(8) == (2, 4)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_counter_bounds_fuzz(seed):
    """Counters stay in [0, threshold]; resets fire only at the threshold.

    200 selections, each with a Remote-Shared LRU line as `access`
    calls it, make both a biased selection and a reset all but certain,
    and the test checks that both happened."""
    rng = random.Random(seed)
    assoc = rng.choice([2, 4, 8, 16])
    thresholds = PolicyConfig(PolicyKind.BIASED_ALWAYS).thresholds(assoc)
    lines, counters = full_set(assoc), [0, 0]
    fired = resets = 0
    for _ in range(200):
        for tag in lines:
            lines[tag] = REMOTE_SHARED if rng.random() < 0.5 else EXCLUSIVE
        lru = next(iter(lines))
        lines[lru] = REMOTE_SHARED
        home_class = rng.randrange(2)
        before = list(counters)
        victim, biased, reset = select(lines, counters, home_class, thresholds)
        fired, resets = fired + biased, resets + reset
        for count, limit in zip(counters, thresholds):
            assert 0 <= count <= limit
        if reset:
            assert victim == lru
            assert before[home_class] == thresholds[home_class]
            assert counters[home_class] == 0
        if biased:
            assert lines[victim] != REMOTE_SHARED
    assert fired and resets  # the bias and the resets were exercised
