"""Differential test: the engine against the brute-force reference model on
random topologies, thresholds, controller settings, latencies and traces."""

import random
from collections import Counter
from contextlib import ExitStack
from itertools import chain, product, starmap
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from numacache import coherence, workload
from numacache.address_map import ConfigError, TopologyConfig, decode
from numacache.coherence import CoherenceSystem
from numacache.engine import Decoded, LatencyModel, PolicyConfig, PolicyKind, run
from numacache.replacement import (BIAS_EVENT, COUNT_SLOTS, COUNTER_RESET, EXCLUSIVE,
                                   MODIFIED, OWNER, REMOTE_SHARED, SHARED, WRITEBACK,
                                   select_victim)
from numacache.workload import format_trace, parse_blocks, record_blocks

from reference_model import RefModel

POLICIES = {
    "lru": PolicyKind.LRU_ONLY,
    "biased": PolicyKind.BIASED_ALWAYS,
    "adaptive": PolicyKind.BIASED_ADAPTIVE,
}


def policy(kind, t_local, t_remote, adaptive):
    """The `PolicyConfig` of a scenario's thresholds and watermarks."""
    return PolicyConfig(kind, t_local, t_remote, adaptive["window"], adaptive["high"],
                        adaptive["low"], adaptive["initial_bias"],
                        adaptive["count_remote_dram"])


@st.composite
def scenarios(draw):
    sockets = draw(st.sampled_from([1, 2, 4, 8]))
    sets = draw(st.sampled_from([1, 2, 4, 8]))
    assoc = draw(st.integers(2, 16))
    line_size = draw(st.sampled_from([16, 64]))
    width = draw(st.integers(16, 40))
    thresholds = [draw(st.one_of(st.none(), st.integers(1, assoc)))
                  for _ in range(2)]
    low = draw(st.floats(0.0, 1.0))
    adaptive = dict(window=draw(st.integers(1, 16)), low=low,
                    high=draw(st.floats(low, 1.0)),
                    initial_bias=draw(st.booleans()),
                    count_remote_dram=draw(st.booleans()))
    # any latencies that LatencyModel accepts
    llc_hit = draw(st.integers(0, 500))
    remote_c2c = draw(st.integers(llc_hit + 1, 1000))
    remote_dram = draw(st.integers(remote_c2c, 1000))
    lat = LatencyModel(llc_hit, remote_c2c, draw(st.integers(0, remote_dram - 1)),
                       remote_dram)
    # The trace comes from a seeded generator: a pool of addresses anywhere
    # in the address space but in at most two sets, half to twice their
    # capacity, so that lines are reused, shared and evicted.
    rng = random.Random(draw(st.integers(0, 2**32)))
    hot_sets, set_field = min(sets, 2), (sets - 1) * line_size
    pool = [(rng.randrange(2**width) & ~set_field)
            | rng.randrange(hot_sets) * line_size
            for _ in range(int(rng.uniform(0.5, 2) * hot_sets * assoc) + 1)]
    write_frac = rng.choice([0.0, 0.2, 0.5])
    accesses = [
        (rng.randrange(sockets), "W" if rng.random() < write_frac else "R",
         rng.choice(pool), seq)
        for seq in range(rng.randrange(301))
    ]
    topo = TopologyConfig(num_sockets=sockets, llc_sets=sets, llc_assoc=assoc,
                          line_size_bytes=line_size, address_width=width)
    return topo, thresholds, adaptive, lat, accesses


def bias_accesses(rng: random.Random, topo: TopologyConfig) -> list:
    """A trace that keeps the bias busy on `topo`. Each set's pool holds
    more lines than its ways, homed on every socket in turn, so that every
    requestor meets lines of both home classes. Most steps are a run of
    one socket's write and other sockets' reads of one line, which leaves
    the writer an Owner and the readers remote-shared copies; the rest
    are runs of reads alone, whose first fills a line Exclusive if no
    socket holds it and whose next degrades that copy to Shared."""
    sockets, assoc = topo.num_sockets, topo.llc_assoc
    home_shift = topo.address_width - topo.socket_bits
    tag_shift = topo.offset_bits + topo.set_bits
    pool = [index % sockets << home_shift | index << tag_shift | set_id << topo.offset_bits
            for set_id in range(topo.llc_sets)
            for index in range(rng.randint(max(assoc + 1, sockets), 3 * assoc))]
    accesses, length = [], rng.randrange(40, 241)
    while len(accesses) < length:
        addr = rng.choice(pool)
        if rng.random() < 0.75:
            writer = rng.randrange(sockets)
            others = [socket for socket in range(sockets) if socket != writer]
            steps = [(writer, "W")] + [(reader, "R") for reader in
                                       rng.sample(others, rng.randint(1, len(others)))]
        else:
            steps = [(reader, "R") for reader in
                     rng.sample(range(sockets), rng.randint(1, sockets))]
        accesses += [(socket, op, addr, len(accesses) + i)
                     for i, (socket, op) in enumerate(steps)]
    return accesses


@st.composite
def bias_scenarios(draw):
    """Scenarios that reach the bias path, which `scenarios` rarely does:
    2 or 4 sockets, 1 or 2 sets of 2-4 ways and thresholds of 1 or 2, so
    that sets overflow, both home classes are protected and the counters
    reset, and windows of at most 8 misses, so that the adaptive bias
    flips. The trace comes from `bias_accesses`."""
    topo = TopologyConfig(num_sockets=draw(st.sampled_from([2, 4])),
                          llc_sets=draw(st.sampled_from([1, 2])),
                          llc_assoc=draw(st.integers(2, 4)), address_width=16)
    thresholds = [draw(st.integers(1, 2)) for _ in range(2)]
    low = draw(st.floats(0.0, 1.0))
    adaptive = dict(window=draw(st.integers(1, 8)), low=low,
                    high=draw(st.floats(low, 1.0)),
                    initial_bias=draw(st.booleans()),
                    count_remote_dram=draw(st.booleans()))
    accesses = bias_accesses(random.Random(draw(st.integers(0, 2**32))), topo)
    return topo, thresholds, adaptive, LatencyModel(), accesses


def equals_reference_model(scenario):
    """`run` gives the reference model's stats body under every policy."""
    topo, (t_local, t_remote), adaptive, lat, accesses = scenario
    records = [(socket, 0, op, addr) for socket, op, addr, _ in accesses]
    for name, kind in POLICIES.items():
        sim = run(records, topo, policy(kind, t_local, t_remote, adaptive)).to_dict(lat)
        ref = RefModel(topo.num_sockets, topo.llc_sets, topo.llc_assoc,
                       topo.line_size_bytes, topo.address_width, name,
                       t_local, t_remote, **adaptive, lat=lat.costs).run(accesses)
        assert sim == ref, name


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_engine_equals_reference_model(scenario):
    equals_reference_model(scenario)


@settings(max_examples=40, deadline=None)
@given(bias_scenarios())
def test_engine_equals_reference_model_on_the_bias_path(scenario):
    equals_reference_model(scenario)


def test_bias_scenarios_reach_every_bias_path():
    """`bias_accesses` reaches each case of the bias path and of the
    coherence rules around it in at least a third of 48 fixed draws (12
    topologies, 4 seeds with their thresholds). Stepping `simulate` with
    the bias on, a spy on `select_victim` sees a protection and a counter
    reset in each home class and the fallback in which every line is
    remote-shared, and the states before and after each access show an
    Exclusive supplier degraded to Shared, a Modified one turned Owner, an
    upgrade on a write hit and a dirty Owner written back. Under
    `adaptive` the watermarks flip the bias each way."""
    seen, draws = set(), Counter()

    def spy(lines, lru, counters, home_class, thresholds, count):
        every_line_shared = all(state == REMOTE_SHARED for state in lines.values())
        before = list(count)
        victim = select_victim(lines, lru, counters, home_class, thresholds, count)
        if count[BIAS_EVENT] > before[BIAS_EVENT]:
            seen.add(("protection", home_class))
        elif count[COUNTER_RESET] > before[COUNTER_RESET]:
            seen.add(("reset", home_class))
        elif every_line_shared:
            seen.add("every line remote-shared")
        return victim

    for sockets, sets, assoc in product((2, 4), (1, 2), (2, 3, 4)):
        topo = TopologyConfig(num_sockets=sockets, llc_sets=sets, llc_assoc=assoc,
                              address_width=16)
        for seed, thresholds in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)]):
            seen.clear()
            records = [(socket, 0, op, addr) for socket, op, addr, _
                       in bias_accesses(random.Random(seed), topo)]
            system = CoherenceSystem(topo, thresholds)
            counts = [[0] * COUNT_SLOTS for _ in range(sockets)]
            # the bias stays on: no window closes
            bias, left = [True] * sockets, [len(records) + 1] * sockets
            stream = chain.from_iterable(starmap(zip, decode(record_blocks(records, topo), topo)))
            with mock.patch.object(coherence, "select_victim", spy):
                for socket, op, set_id, tag in stream:
                    before = [dict(lines) for lines in system.columns[set_id]]
                    writebacks = counts[socket][WRITEBACK]
                    system.simulate([(socket, op, set_id, tag)], counts, bias, left,
                                    len(records) + 1, None)
                    after, held = system.columns[set_id], before[socket].get(tag)
                    if op == "W" and held in (SHARED, REMOTE_SHARED, OWNER):
                        seen.add("upgrade on a hit")
                    for was, now in zip(before, after):
                        if op == "R" and held is None and (was.get(tag), now.get(tag)) in (
                                (EXCLUSIVE, SHARED), (MODIFIED, OWNER)):
                            seen.add(f"{was[tag]} supplier turned {now[tag]}")
                    if counts[socket][WRITEBACK] > writebacks and OWNER in (
                            state for victim, state in before[socket].items()
                            if victim not in after[socket]):
                        seen.add("dirty Owner written back")
            stats = run(records, topo, PolicyConfig(
                PolicyKind.BIASED_ADAPTIVE, *thresholds, window_size=2,
                high_water=0.5, low_water=0.5))
            seen.update(("toggle", flag) for _, _, flag in stats.adaptive_toggles)
            draws.update(seen)
    assert set(draws) == {
        ("protection", 0), ("protection", 1), ("reset", 0), ("reset", 1),
        "every line remote-shared", "E supplier turned S", "M supplier turned O",
        "upgrade on a hit", "dirty Owner written back", ("toggle", True), ("toggle", False)}
    assert min(draws.values()) >= 48 // 3, draws


@settings(max_examples=30, deadline=None)
@given(scenarios())
def test_stepped_run_counts_what_one_call_counts(scenario):
    """`run` under `validate` steps `simulate` one access at a time and
    counts what `run` counts in one call. So does a system stepped
    directly against one that runs every access in one call, window
    closes and bias flips included: `simulate` keeps no state between
    calls but what its caller passes in."""
    topo, (t_local, t_remote), adaptive, _, accesses = scenario
    records = [(socket, 0, op, addr) for socket, op, addr, _ in accesses]
    window, sockets = adaptive["window"], topo.num_sockets
    for name, kind in POLICIES.items():
        config = policy(kind, t_local, t_remote, adaptive)
        assert run(records, topo, config, validate=True) == run(records, topo, config), name

        results = []
        for stepped in (False, True):
            system = CoherenceSystem(topo, config.thresholds(topo.llc_assoc))
            counts, closes = [[0] * COUNT_SLOTS for _ in range(sockets)], []
            bias = [kind is not PolicyKind.LRU_ONLY] * sockets
            left = [window] * sockets

            def close_window(socket):
                closes.append((sum(map(sum, counts)), socket))
                if kind is PolicyKind.BIASED_ADAPTIVE:  # a flip per window
                    bias[socket] = not bias[socket]

            stream = chain.from_iterable(starmap(
                zip, decode(record_blocks(records, topo), topo)))
            for part in ([(access,) for access in stream] if stepped else [stream]):
                system.simulate(part, counts, bias, left, window, close_window)
            results.append((counts, closes, bias, left, system.columns,
                            system.counters))
        assert results[0] == results[1], name


@settings(max_examples=30, deadline=None)
@given(scenarios(), scenarios())
def test_decoded_stream_equals_records(scenario, other):
    """`run` over the CLI's stream, parsed, decoded and read ahead, counts
    what `run` over the same records counts. Blocks of 16 records and a
    reader forked after the first block (where a second CPU is usable) put
    every later block through the pipe. A stream decoded for one topology
    is refused on another."""
    topo, (t_local, t_remote), adaptive, _, accesses = scenario
    records = [(socket, 0, op, addr) for socket, op, addr, _ in accesses]
    lines = [line + "\n" for line in format_trace(records)]
    def stream(files):
        blocks = decode(parse_blocks(lines, topo), topo)
        return Decoded(topo, workload.read_ahead(blocks, files))

    with mock.patch.object(workload, "_BLOCK", 16), \
            mock.patch.object(workload, "_FORK_AFTER", 0):
        for kind in POLICIES.values():
            config = policy(kind, t_local, t_remote, adaptive)
            with ExitStack() as files:
                assert run(stream(files), topo, config) == run(records, topo, config), kind
    if other[0] != topo:
        with ExitStack() as files, pytest.raises(
                ConfigError, match="^the trace was decoded for another topology$"):
            run(stream(files), other[0], PolicyConfig())


@settings(max_examples=150, deadline=None)
@given(scenarios(), st.permutations(range(8)))
def test_relabelling_the_sockets_permutes_the_stats(scenario, eight):
    """Socket ids are labels: permuting them, and each address's home bits
    by the same permutation, permutes each socket's counts and window
    fractions, and maps each toggle's socket, under every policy."""
    topo, (t_local, t_remote), adaptive, _, accesses = scenario
    # socket -> its label, moving socket 0 wherever there is another
    perm = [socket for socket in eight if socket < topo.num_sockets]
    perm = perm[1:] + perm[:1] if perm[0] == 0 else perm
    home_shift = topo.address_width - topo.socket_bits
    body = (1 << home_shift) - 1
    records = [(socket, 0, op, addr) for socket, op, addr, _ in accesses]
    relabelled = [(perm[socket], 0, op, perm[addr >> home_shift] << home_shift | addr & body)
                  for socket, _, op, addr in records]
    for name, kind in POLICIES.items():
        config = policy(kind, t_local, t_remote, adaptive)
        stats, moved = (run(trace, topo, config) for trace in (records, relabelled))
        assert [moved.counts[p] for p in perm] == stats.counts, name
        assert [moved.window_fractions[p] for p in perm] == stats.window_fractions, name
        assert moved.adaptive_toggles == [(seq, perm[socket], flag)
                                          for seq, socket, flag in stats.adaptive_toggles], name


@settings(max_examples=40, deadline=None)
@given(st.one_of(scenarios(), bias_scenarios()))
def test_set_decomposition_sums_to_the_whole_run(scenario):
    """Under `lru` and `biased` a set's lines and bias counters change only
    with its own accesses, so each socket's counts, in every slot, are the
    sums of one run per set index over only that set's accesses. (Under
    `adaptive` a socket's windows, and so its bias, span its sets.)"""
    topo, (t_local, t_remote), adaptive, _, accesses = scenario
    records = [(socket, 0, op, addr) for socket, op, addr, _ in accesses]
    set_of = [addr >> topo.offset_bits & topo.llc_sets - 1 for _, _, _, addr in records]
    for kind in (PolicyKind.LRU_ONLY, PolicyKind.BIASED_ALWAYS):
        config = policy(kind, t_local, t_remote, adaptive)
        parts = [run([record for record, index in zip(records, set_of) if index == set_id],
                     topo, config).counts for set_id in range(topo.llc_sets)]
        assert run(records, topo, config).counts == [
            [sum(slot) for slot in zip(*per_set)] for per_set in zip(*parts)], kind
