"""Differential test: the engine against the brute-force reference model on
random topologies, thresholds, controller settings and traces."""

import random

from hypothesis import given, settings, strategies as st

from numacache.adaptive import AdaptiveConfig
from numacache.address_map import TopologyConfig
from numacache.engine import run
from numacache.replacement import PolicyConfig, PolicyKind
from numacache.workload import AccessRecord, Op

from reference_model import RefModel

POLICIES = {
    "lru": PolicyKind.LRU_ONLY,
    "biased": PolicyKind.BIASED_ALWAYS,
    "adaptive": PolicyKind.BIASED_ADAPTIVE,
}


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
    return topo, thresholds, adaptive, accesses


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_engine_equals_reference_model(scenario):
    topo, (t_local, t_remote), adaptive, accesses = scenario
    records = [AccessRecord(socket, 0, Op(op), addr, seq)
               for socket, op, addr, seq in accesses]
    config = AdaptiveConfig(adaptive["window"], adaptive["high"],
                            adaptive["low"], adaptive["initial_bias"],
                            adaptive["count_remote_dram"])
    for name, kind in POLICIES.items():
        sim = run(records, topo, PolicyConfig(kind, t_local, t_remote),
                  config).to_dict()
        ref = RefModel(topo.num_sockets, topo.llc_sets, topo.llc_assoc,
                       topo.line_size_bytes, topo.address_width, name,
                       t_local, t_remote, **adaptive).run(accesses)
        assert sim == ref, name
