"""Differential test: the engine against the brute-force reference model on
random topologies, thresholds, controller settings, latencies and traces."""

import random
from contextlib import ExitStack
from itertools import chain, starmap
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from numacache import workload
from numacache.address_map import ConfigError, TopologyConfig, decode
from numacache.coherence import CoherenceSystem
from numacache.engine import Decoded, LatencyModel, PolicyConfig, PolicyKind, run
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


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_engine_equals_reference_model(scenario):
    topo, (t_local, t_remote), adaptive, lat, accesses = scenario
    records = [(socket, 0, op, addr) for socket, op, addr, _ in accesses]
    for name, kind in POLICIES.items():
        sim = run(records, topo, policy(kind, t_local, t_remote, adaptive)).to_dict(lat)
        ref = RefModel(topo.num_sockets, topo.llc_sets, topo.llc_assoc,
                       topo.line_size_bytes, topo.address_width, name,
                       t_local, t_remote, **adaptive, lat=lat.costs).run(accesses)
        assert sim == ref, name


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
            counts, closes = [[0] * 7 for _ in range(sockets)], []
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
