import json
import random

import pytest

from numacache.adaptive import AdaptiveConfig
from numacache.address_map import ConfigError, TopologyConfig
from numacache.coherence import ServiceSource
from numacache.engine import LatencyModel, SimStats, compare, run
from numacache.replacement import PolicyConfig, PolicyKind
from numacache.workload import AccessRecord, GeneratorKind, GeneratorSpec, Op, generate

TOPO = TopologyConfig(num_sockets=2, llc_sets=4, llc_assoc=4,
                      line_size_bytes=64, address_width=32)
LAT = LatencyModel()


def random_trace(n, seed, sockets=2, lines=64, write_frac=0.4):
    rng = random.Random(seed)
    recs = []
    for i in range(n):
        addr = rng.randrange(lines) * 64 | (rng.randrange(sockets) << 31)
        op = Op.WRITE if rng.random() < write_frac else Op.READ
        recs.append(AccessRecord(rng.randrange(sockets), 0, op, addr, i))
    return recs


class TestLatencyModel:
    def test_default_ordering_holds(self):
        lat = LatencyModel()
        assert lat.llc_hit < lat.remote_c2c <= lat.remote_dram
        assert lat.local_dram < lat.remote_dram

    def test_bad_ordering_rejected(self):
        with pytest.raises(ConfigError):
            LatencyModel(llc_hit=200, remote_c2c=150)
        with pytest.raises(ConfigError):
            LatencyModel(local_dram=400, remote_dram=350)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError):
            LatencyModel(llc_hit=-5)
        with pytest.raises(ConfigError):
            LatencyModel(local_dram=-1)

    def test_costs_indexed_by_source(self):
        lat = LatencyModel(llc_hit=1, remote_c2c=2, local_dram=3, remote_dram=4)
        assert [lat.costs[s] for s in ServiceSource] == [1, 2, 3, 4]
        assert lat.costs[ServiceSource.REMOTE_C2C] == 2


class TestRun:
    def test_empty_trace(self):
        stats = run([], TOPO, PolicyConfig())
        assert stats.accesses == 0
        assert stats.total_cost == 0
        assert stats.adaptive_toggles == []

    def test_single_cold_read_local_home(self):
        stats = run([AccessRecord(0, 0, Op.READ, 0x1000, 0)], TOPO,
                    PolicyConfig(), lat=LAT)
        assert stats.misses == 1
        assert stats.per_socket[0].local_dram == 1
        assert stats.total_cost == LAT.local_dram

    def test_conservation(self):
        trace = random_trace(2000, 3)
        stats = run(trace, TOPO, PolicyConfig(PolicyKind.BIASED_ALWAYS))
        assert stats.hits + stats.misses == stats.accesses == 2000
        d = stats.to_dict()
        assert sum(d["misses_by_source"].values()) == d["misses"]

    def test_determinism(self):
        trace = random_trace(3000, 11)
        a = run(trace, TOPO, PolicyConfig(PolicyKind.BIASED_ADAPTIVE),
                AdaptiveConfig(window_size=64))
        b = run(trace, TOPO, PolicyConfig(PolicyKind.BIASED_ADAPTIVE),
                AdaptiveConfig(window_size=64))
        assert a.to_dict() == b.to_dict()

    def test_validation_mode_clean_on_random_trace(self):
        trace = random_trace(1000, 5)
        run(trace, TOPO, PolicyConfig(PolicyKind.BIASED_ALWAYS), validate=True)

    def test_adaptive_never_on_reproduces_lru(self):
        for seed in range(5):
            trace = random_trace(2000, seed)
            lru = run(trace, TOPO, PolicyConfig(PolicyKind.LRU_ONLY))
            off = run(trace, TOPO, PolicyConfig(PolicyKind.BIASED_ADAPTIVE),
                      AdaptiveConfig(high_water=1.1, low_water=0.0,
                                     initial_bias=False))
            assert json.dumps(lru.to_dict()) == json.dumps(off.to_dict())

    def test_out_of_range_socket_rejected(self):
        with pytest.raises(ConfigError):
            run([AccessRecord(7, 0, Op.READ, 0x0, 0)], TOPO, PolicyConfig())

    def test_negative_socket_or_core_rejected(self):
        # a negative index would otherwise alias the last socket
        for socket, core in ((-1, -1), (-1, 0), (0, -1)):
            with pytest.raises(ConfigError):
                run([AccessRecord(socket, core, Op.READ, 0x0, 0)], TOPO,
                    PolicyConfig())

    def test_op_other_than_read_or_write_rejected(self):
        # a string op would otherwise be simulated as a write
        topo = TopologyConfig(num_sockets=1, llc_sets=1, llc_assoc=4)
        reads = [AccessRecord(0, 0, Op.READ, i * 64, i) for i in range(5)]
        assert run(reads, topo, PolicyConfig()).to_dict()["writebacks"] == 0
        for op in ("R", "W", None):
            trace = [AccessRecord(0, 0, op, 0x40, 0)] + reads[1:]
            with pytest.raises(ConfigError, match="record 0"):
                run(trace, topo, PolicyConfig())


class TestCompare:
    def test_self_comparison_zero_deltas(self):
        trace = random_trace(500, 2)
        report = compare(trace, TOPO,
                         [PolicyConfig(PolicyKind.LRU_ONLY),
                          PolicyConfig(PolicyKind.LRU_ONLY)])
        for delta in report["deltas"]:
            assert delta["misses"] == 0
            assert delta["remote_c2c"] == 0
            assert delta["total_cost"] == 0

    def test_private_stream_never_biases(self):
        spec = GeneratorSpec(GeneratorKind.PRIVATE_STREAM,
                             working_set_lines=40, iterations=3)
        trace = generate(spec, TOPO)
        report = compare(trace, TOPO,
                         [PolicyConfig(PolicyKind.LRU_ONLY),
                          PolicyConfig(PolicyKind.BIASED_ALWAYS)])
        biased = report["policies"][1]["stats"]
        assert biased["bias_events"] == 0

    def test_needs_a_policy(self):
        with pytest.raises(ConfigError):
            compare([], TOPO, [])


class TestStatsShape:
    def test_to_dict_keys_stable(self):
        stats = run(random_trace(100, 1), TOPO, PolicyConfig())
        d = stats.to_dict()
        assert list(d) == [
            "accesses", "hits", "misses", "misses_by_source", "writebacks",
            "bias_events", "counter_resets", "total_cost",
            "adaptive_toggles", "per_socket",
        ]
        assert len(d["per_socket"]) == TOPO.num_sockets
