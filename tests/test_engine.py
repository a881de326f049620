import json
import random
import sys
from itertools import chain, islice

import pytest

from numacache import coherence, engine, replacement
from numacache.address_map import ConfigError, TopologyConfig
from numacache.coherence import (
    LOCAL_DRAM,
    LOCAL_HIT,
    REMOTE_C2C,
    REMOTE_DRAM,
    CoherenceSystem,
)
from numacache.engine import LatencyModel, PolicyConfig, PolicyKind, compare, run
from numacache.workload import (
    GeneratorKind,
    GeneratorSpec,
    TraceError,
    format_trace,
    generate,
)

from helpers import parse_records

TOPO = TopologyConfig(num_sockets=2, llc_sets=4, llc_assoc=4,
                      line_size_bytes=64, address_width=32)
LAT = LatencyModel()


class Unequal:
    """An op that cannot be compared."""

    def __eq__(self, other):
        raise TypeError("no ==")

    def __repr__(self):
        return "Unequal()"


def random_trace(n, seed, sockets=2, lines=64, write_frac=0.4):
    rng = random.Random(seed)
    recs = []
    for i in range(n):
        addr = rng.randrange(lines) * 64 | (rng.randrange(sockets) << 31)
        op = "W" if rng.random() < write_frac else "R"
        recs.append((rng.randrange(sockets), 0, op, addr))
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

    @pytest.mark.parametrize("value", [1.5, 30.0, True, "30", None])
    @pytest.mark.parametrize("field", ["llc_hit", "remote_c2c", "local_dram",
                                       "remote_dram"])
    def test_non_integer_cost_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an int, got {value!r}$"):
            LatencyModel(**{field: value})

    def test_costs_indexed_by_source(self):
        lat = LatencyModel(llc_hit=1, remote_c2c=2, local_dram=3, remote_dram=4)
        sources = (LOCAL_HIT, REMOTE_C2C, LOCAL_DRAM, REMOTE_DRAM)
        assert [lat.costs[s] for s in sources] == [1, 2, 3, 4]
        assert lat.costs[REMOTE_C2C] == 2


class TestRun:
    def test_empty_trace(self):
        stats = run([], TOPO, PolicyConfig()).to_dict()
        assert stats["accesses"] == 0
        assert stats["total_cost"] == 0
        assert stats["adaptive_toggles"] == []

    def test_single_cold_read_local_home(self):
        stats = run([(0, 0, "R", 0x1000)], TOPO,
                    PolicyConfig()).to_dict(LAT)
        assert stats["misses"] == 1
        assert stats["per_socket"][0]["misses_by_source"]["local_dram"] == 1
        assert stats["total_cost"] == LAT.local_dram

    def test_latency_is_not_a_run_argument(self):
        # a latency model passed where `run` once took one must not turn
        # validation on
        with pytest.raises(TypeError):
            run([], TOPO, PolicyConfig(), LAT)

    def test_conservation(self):
        trace = random_trace(2000, 3)
        d = run(trace, TOPO, PolicyConfig(PolicyKind.BIASED_ALWAYS)).to_dict()
        assert d["hits"] + d["misses"] == d["accesses"] == 2000
        assert sum(d["misses_by_source"].values()) == d["misses"]

    def test_determinism(self):
        trace = random_trace(3000, 11)
        a = run(trace, TOPO, PolicyConfig(PolicyKind.BIASED_ADAPTIVE, window_size=64))
        b = run(trace, TOPO, PolicyConfig(PolicyKind.BIASED_ADAPTIVE, window_size=64))
        assert a.to_dict() == b.to_dict()

    def test_validation_mode_clean_on_random_trace(self):
        trace = random_trace(1000, 5)
        run(trace, TOPO, PolicyConfig(PolicyKind.BIASED_ALWAYS), validate=True)

    def test_adaptive_never_on_reproduces_lru(self):
        for seed in range(5):
            trace = random_trace(2000, seed)
            lru = run(trace, TOPO, PolicyConfig(PolicyKind.LRU_ONLY))
            off = run(trace, TOPO, PolicyConfig(PolicyKind.BIASED_ADAPTIVE, high_water=1.1,
                                                low_water=0.0, initial_bias=False))
            assert json.dumps(lru.to_dict()) == json.dumps(off.to_dict())

    def test_out_of_range_socket_rejected(self):
        with pytest.raises(ConfigError):
            run([(7, 0, "R", 0x0)], TOPO, PolicyConfig())

    def test_negative_socket_or_core_rejected(self):
        # a negative index would otherwise alias the last socket
        for socket, core in ((-1, -1), (-1, 0), (0, -1)):
            with pytest.raises(ConfigError):
                run([(socket, core, "R", 0x0)], TOPO,
                    PolicyConfig())

    def test_op_other_than_read_or_write_rejected(self):
        # any other op would otherwise be simulated as a write
        topo = TopologyConfig(num_sockets=1, llc_sets=1, llc_assoc=4)
        reads = [(0, 0, "R", i * 64) for i in range(5)]
        assert run(reads, topo, PolicyConfig()).to_dict()["writebacks"] == 0
        for op in ("r", "X", "RW", None, b"R"):
            trace = [(0, 0, op, 0x40)] + reads[1:]
            with pytest.raises(ConfigError) as error:
                run(trace, topo, PolicyConfig())
            assert str(error.value) == f"record 0: op {op!r} is not R or W"

    # id -> (the malformed record, the error that names it)
    MALFORMED = {
        "str-address": ((0, 0, "R", "0x40"),
                        "record 2: address '0x40' is not an integer"),
        "float-address": ((0, 0, "W", 64.0),
                          "record 2: address 64.0 is not an integer"),
        "none-socket": ((None, 0, "R", 0x40),
                        "record 2: socket None is not an integer"),
        "float-socket": ((1.0, 0, "R", 0x40),
                         "record 2: socket 1.0 is not an integer"),
        "str-core": ((0, "0", "R", 0x40),
                     "record 2: core '0' is not an integer"),
        # a float core in range: only the record check reads the core
        "fraction-core": ((0, 0.5, "R", 0x40),
                          "record 2: core 0.5 is not an integer"),
        "float-core": ((0, 0.0, "W", 0x40),
                       "record 2: core 0.0 is not an integer"),
        # a bool is an int to isinstance, but no record field takes one
        "bool-socket": ((True, 0, "R", 0x40),
                        "record 2: socket True is not an integer"),
        "bool-core": ((0, False, "R", 0x40),
                      "record 2: core False is not an integer"),
        "bool-address": ((0, 0, "W", True),
                         "record 2: address True is not an integer"),
        "wide-address": ((0, 0, "R", 1 << 32),
                         "record 2: address 0x100000000 does not fit in 32 bits"),
        "negative-address": ((0, 0, "W", -64),
                             "record 2: address -0x40 does not fit in 32 bits"),
        # a record is named by its index in the trace, whatever its shape
        "5-tuple": ((0, 0, "R", 0x40, 2),
                    "record 2: expected (socket, core, op, addr), "
                    "got (0, 0, 'R', 64, 2)"),
        "none": (None, "record 2: expected (socket, core, op, addr), got None"),
        # an op whose == raises fails in the loop's comparison
        "unequal-op": ((0, 0, Unequal(), 0x40),
                       "record 2: op Unequal() is not R or W"),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_record_names_it(self, case):
        bad, message = self.MALFORMED[case]
        trace = random_trace(2, 1) + [bad] + random_trace(2, 2)
        with pytest.raises(ConfigError) as error:
            run(trace, TOPO, PolicyConfig(PolicyKind.BIASED_ALWAYS))
        assert str(error.value) == message

    def test_trace_errors_pass_unchanged(self):
        def trace(error):
            yield from random_trace(3, 1)
            raise error("from the trace")

        for error in (TypeError, ValueError):
            with pytest.raises(error, match="^from the trace$"):
                run(trace(error), TOPO, PolicyConfig())
        # before the first record, and after one
        for lines in (["0 0 R 0x4_0\n"], ["0 0 R 0x40\n", "0 0 R 0x4_0\n"]):
            with pytest.raises(TraceError, match=f"^line {len(lines)}: address must be"):
                run(parse_records(lines, TOPO), TOPO, PolicyConfig())

    def test_internal_type_error_passes_unchanged(self, monkeypatch):
        def broken(self):
            raise TypeError("internal")

        # `run` steps the loop and sweeps the invariants after the first access
        monkeypatch.setattr(CoherenceSystem, "check_global_invariants", broken)
        with pytest.raises(TypeError, match="^internal$"):
            run([(0, 0, "R", 0x40)], TOPO, PolicyConfig(), validate=True)


def test_python_calls_per_record_stay_at_the_layer_boundaries():
    """A record costs a Python-level call only at a layer boundary: one
    `select_victim` on a miss that finds its set full with the bias on and
    a remote-shared LRU line. Each access runs inline in
    `CoherenceSystem.simulate`'s loop, the parser's blocks are zipped into
    records with builtins, the check and decode steps run once per block,
    and the adaptive window is counted in the loop, which calls out only
    when a window closes."""
    spec = GeneratorSpec(GeneratorKind.PRODUCER_CONSUMER, working_set_lines=24,
                         iterations=40, sharing_socket_pairs=[(0, 1), (1, 0)])
    lines = [line + "\n" for line in format_trace(generate(spec, TOPO))]
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        stats = run(parse_records(lines, TOPO), TOPO,
                    PolicyConfig(PolicyKind.BIASED_ADAPTIVE, window_size=64))
    finally:
        sys.setprofile(None)
    # every access misses, and evictions write back, bias and reset
    d = stats.to_dict()
    assert d["misses"] == len(lines) == 3840
    assert d["writebacks"] > 1000 and d["bias_events"] > 1000
    assert d["counter_resets"] > 500
    assert calls / len(lines) <= 0.97  # 0.92 when measured


# bytecodes per record of `test_bytecodes_per_record_stay_bounded`'s run, 1 %
# above the counts measured on each Python version, keyed by
# `sys.version_info[:2]`: on 3.11.7 lru 106.10, biased 150.17, adaptive
# 147.96; on 3.12.1 106.12, 149.21, 147.06; on 3.13.0 102.36, 141.89, 139.91
BYTECODE_BOUNDS = {
    (3, 11): {PolicyKind.LRU_ONLY: 107.1, PolicyKind.BIASED_ALWAYS: 151.6,
              PolicyKind.BIASED_ADAPTIVE: 149.4},
    (3, 12): {PolicyKind.LRU_ONLY: 107.1, PolicyKind.BIASED_ALWAYS: 150.7,
              PolicyKind.BIASED_ADAPTIVE: 148.5},
    (3, 13): {PolicyKind.LRU_ONLY: 103.3, PolicyKind.BIASED_ALWAYS: 143.3,
              PolicyKind.BIASED_ADAPTIVE: 141.3},
}


@pytest.mark.skipif(sys.version_info[:2] not in BYTECODE_BOUNDS,
                    reason="opcode counts differ between Python versions, and "
                           "this one has no measured row")
@pytest.mark.parametrize("kind", list(PolicyKind), ids=lambda kind: kind.value)
def test_bytecodes_per_record_stay_bounded(kind):
    """The bytecodes that `run` executes per record in `coherence`,
    `replacement` and `engine` frames (`sys.settrace` opcode events) stay
    within a bound, on 5 000 records of producer-consumer, private and
    migratory phases, over sets small enough that every path of the loop
    runs: hits, every miss source, write-backs, and under the biased kinds
    bias events and counter resets, while the watermarks flip the bias.
    A change that adds work per record fails here on any host."""
    topo = TopologyConfig(num_sockets=4, llc_sets=16, llc_assoc=4)
    phases = [
        GeneratorSpec(GeneratorKind.PRODUCER_CONSUMER, working_set_lines=96, iterations=2,
                      sharing_socket_pairs=[(0, 1), (1, 2), (2, 3), (3, 0)]),
        GeneratorSpec(GeneratorKind.PRIVATE_STREAM, working_set_lines=48, iterations=3),
        GeneratorSpec(GeneratorKind.MIGRATORY, working_set_lines=24, iterations=2),
    ]
    records = list(islice(chain.from_iterable(
        generate(spec._replace(rng_seed=seed), topo) for seed in range(4) for spec in phases),
        5000))
    files = {module.__file__ for module in (coherence, engine, replacement)}
    opcodes = 0

    def count(frame, event, arg):
        nonlocal opcodes
        opcodes += event == "opcode"
        return count

    def enter(frame, event, arg):
        if frame.f_code.co_filename in files:
            frame.f_trace_opcodes = True
            return count

    def traced(records):
        previous = sys.gettrace()
        sys.settrace(enter)
        try:
            return run(records, topo,
                       PolicyConfig(kind, window_size=64, high_water=0.5, low_water=0.2))
        finally:
            sys.settrace(previous)

    # on 3.12 and 3.13 the first traced run of a process misses opcode
    # events (3.12 turns them on only at a `settrace` call made after some
    # frame asked for them), so one record is traced first, uncounted
    traced(records[:1])
    opcodes = 0
    stats = traced(records)
    d = stats.to_dict()
    assert d["hits"] and all(d["misses_by_source"].values()) and d["writebacks"]
    assert d["adaptive_toggles"]
    assert bool(d["bias_events"]) == bool(d["counter_resets"]) == (
        kind is not PolicyKind.LRU_ONLY)
    assert opcodes / len(records) <= BYTECODE_BOUNDS[sys.version_info[:2]][kind]


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
