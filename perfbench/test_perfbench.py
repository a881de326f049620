"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, parse_accesses, trace_text  # noqa: E402


def test_generator_is_deterministic():
    for wl in WORKLOADS.values():
        text = trace_text(wl, 5)
        assert text == trace_text(wl, 5), wl.name
        assert text != trace_text(wl, 6), wl.name
        assert parse_accesses(text)[-1][3] == text.count("\n") - 1


def test_self_time_arithmetic():
    # x.a [0, 100] > x.b [10, 40] > y.c [20, 30];  x.a > z.d [50, 90]
    ticks = iter([0, 10, 20, 30, 40, 50, 90, 100])
    rec = layers.Recorder(clock=lambda: next(ticks))
    for step in ("x.a", "x.b", "y.c", None, None, "z.d", None, None):
        rec.enter(step) if step else rec.exit()
    # totals: [calls, entries from another layer, self ns, total ns]
    assert rec.totals == {"x.a": [1, 1, 30, 100], "x.b": [1, 0, 20, 30],
                          "y.c": [1, 1, 10, 10], "z.d": [1, 1, 40, 40]}
    assert sum(t[2] for t in rec.totals.values()) == rec.root_ns == 100
    parents = {name: parent for _, name, _, _, parent in rec.spans}
    ids = {name: sid for sid, name, _, _, _ in rec.spans}
    assert parents == {"x.a": None, "x.b": ids["x.a"], "y.c": ids["x.b"],
                       "z.d": ids["x.a"]}


def _small_report(tmp_path, wl, records):
    from numacache.cli import main
    text = "".join(trace_text(wl, 2).splitlines(True)[:records])
    trace, out = tmp_path / "t.trace", tmp_path / "r.json"
    trace.write_text(text)
    assert main(wl.argv(str(trace), str(out))) == 0
    return parse_accesses(text), json.loads(out.read_text())


def test_perturbed_stats_field_is_a_failure(tmp_path):
    ref_model = gate.load_reference_model(HERE.parent)
    for wl in WORKLOADS.values():
        accesses, report = _small_report(tmp_path, wl, 300)
        assert gate.check_reference(ref_model, wl, accesses, report) == []
        stats = report["stats"]
        good = gate.digest(report)
        stats["misses_by_source"]["remote_c2c"] += 1
        errors = gate.check_reference(ref_model, wl, accesses, report)
        assert len(errors) == 1 and "misses_by_source" in errors[0]
        assert gate.digest(report) != good


def test_golden_mismatch_counts_as_failed_operation(tmp_path, monkeypatch):
    wl = WORKLOADS["validate-mig"]
    golden = json.loads(gate.GOLDEN_FILE.read_text())
    golden[wl.name] = "0" * 64
    perturbed = tmp_path / "golden.json"
    perturbed.write_text(json.dumps(golden))
    monkeypatch.setattr(gate, "GOLDEN_FILE", perturbed)
    bench = run.Bench(tmp_path)
    run.check_gate(bench, wl, trace_text(wl, 3))
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "golden" in bench.errors[0]


def test_missing_boundary_is_absent_and_folds_into_parent(tmp_path):
    from numacache import cli, engine
    wl = WORKLOADS["share-adaptive"]
    original_run = engine.run
    boundaries = (("engine", "run"), ("engine", "LatencyModel.cost"),
                  ("replacement", "CacheSet.no_such_method"), ("gone", "f"))
    rec = layers.Recorder()
    with layers.installed(rec, boundaries) as absent:
        assert cli.run is not original_run
        _small_report(tmp_path, wl, 500)
    assert rec.stack == []
    assert absent == ["replacement.CacheSet.no_such_method", "gone.f"]
    assert engine.run is original_run and cli.run is original_run
    calls, _, self_ns, total_ns = rec.totals["engine.run"]
    assert calls == 1 and self_ns == total_ns - rec.totals["engine.LatencyModel.cost"][3]

    # without the cost boundary, its time stays in run's self time
    rec = layers.Recorder()
    with layers.installed(rec, boundaries[:1]):
        _small_report(tmp_path, wl, 500)
    assert rec.totals["engine.run"][2] == rec.totals["engine.run"][3]

    traced = {"totals": rec.totals, "rss_kib": {}, "import_s": 0.1,
              "report_ns": 0, "unattributed_ns": 5, "wall_ns": 10}
    stats = {"misses": 3, "bias_events": 0, "adaptive_toggles": [],
             "per_socket": [{"window_fractions": []}]}
    metrics = layers.layer_metrics(traced, {"wall_ns": 8}, stats, records=500)
    assert metrics["replacement.lookup_us_per_access"] == (0.0, "us")
    assert metrics["coherence.build_s"] == (0.0, "s")
    assert metrics["engine.self_us_per_access"][0] > 0


def test_host_times_are_scaled_to_the_reference_host():
    walls, setup, probes = [2.0, 2.2], [0.15, 0.17, 0.16], [run.PROBE_REF_S] * 3
    rate, setup_s, slowdown = run.host_metrics(1000, walls, setup, probes)
    assert (rate, setup_s, slowdown) == pytest.approx((2000 / 4.2, 0.16, 1.0))
    # a host 1.3x slower for the whole run reads the same
    slower = run.host_metrics(1000, [w * 1.3 for w in walls], [s * 1.3 for s in setup],
                              [p * 1.3 for p in probes])
    assert slower == pytest.approx((rate, setup_s, 1.3))
    # a slower program on the same host reads slower
    assert run.host_metrics(1000, [w * 1.3 for w in walls], setup, probes)[0] < rate


def test_probe_runs_and_counts_no_operation(tmp_path):
    bench = run.Bench(tmp_path)
    walls = run.probe_runs(bench, 0.0)
    assert len(walls) == 1 and walls[0] > 0
    assert (bench.attempted, bench.failed) == (0, 0)


def test_traced_run_checks_can_fail():
    ok = {"open_spans": 0, "unattributed_ns": 3, "wall_ns": 1000}
    assert run.tracing_error(ok) == ""
    for bad in ({"open_spans": 1}, {"unattributed_ns": -1}, {"unattributed_ns": 51}):
        assert "unattributed" in run.tracing_error(dict(ok, **bad))


def test_layers_script_times_the_cli_import_first(tmp_path):
    wl = WORKLOADS["validate-mig"]
    trace, out, result = tmp_path / "t.trace", tmp_path / "r.json", tmp_path / "l.json"
    trace.write_text("".join(trace_text(wl, 2).splitlines(True)[:300]))
    src = str(HERE.parent / "src")

    def import_tree(*args):
        # `-X importtime` prints one indented line per module imported,
        # children first; keep the lines up to the CLI's own
        done = subprocess.run([sys.executable, "-X", "importtime", *args],
                              capture_output=True, text=True, check=True)
        tree = [line.split("|")[-1].rstrip() for line in done.stderr.splitlines()]
        return tree[:tree.index(" numacache.cli") + 1]

    bare = import_tree("-c", f"import sys; sys.path.insert(0, {src!r}); import numacache.cli")
    traced = import_tree(str(HERE / "layers.py"), "traced", src, str(result), "--",
                         *wl.argv(str(trace), str(out)))
    assert "  inspect" in "\n".join(bare)
    assert traced == bare
    got = json.loads(result.read_text())
    assert got["exit_code"] == 0 and got["import_s"] > 0
    assert run.tracing_error(got) == "" and got["totals"]["engine.run"][0] == 1


def test_per_layer_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    zero = {"totals": {}, "rss_kib": {}, "import_s": 0.0, "report_ns": 0,
            "unattributed_ns": 0, "wall_ns": 1}
    stats = {"misses": 0, "bias_events": 0, "adaptive_toggles": [], "per_socket": []}
    names = set(layers.layer_metrics(zero, zero, stats, records=1))
    assert names | {"workload.cold_miss_frac"} == {m["name"] for m in spec["per_layer"]}
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}
