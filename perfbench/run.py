"""numacache benchmark: one workload through the real `numacache` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

Run from a checkout that holds src/ and tests/. The seed makes the trace;
the CLI only sees the trace file. Every run first checks correctness: the
stats body of the workload at the golden seed must match golden.json, and
the first records of the seeded trace must match tests/reference_model.py.

--trace 0 times the CLI end to end, in fresh processes, for S seconds:
throughput, set-up time on an empty trace and peak resident memory, plus
two simulated-time results of the workload's policy. The two host times are
scaled to a reference host speed, which a fixed Python program
interleaved with the CLI runs measures (probe.py). --trace 1 instead
alternates plain and traced in-process runs (see layers.py) for S seconds
and reports per-layer metrics. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

--record-golden rewrites golden.json from the current program; do that
only when a change to the model's results is intended.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import layers
from launch import TIMEOUT_S
from workloads import WORKLOADS, cold_misses, parse_accesses, sha256, trace_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SHARE = 0.2       # share of the measuring time spent on empty-trace runs
PROBE_SHARE = 0.25      # share of the measuring time spent on the host-speed probe
PROBE_REF_S = 0.37      # probe.py's mean seconds on the reference host (README)
MIN_SAMPLES = 2         # timed CLI runs, even when one outlasts --seconds
UNATTRIBUTED_MAX = 0.05 # largest share of a traced run's wall time outside every span


class Bench:
    """Runs CLI commands and counts attempted and failed operations."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def spawn(self, cmd: list) -> dict:
        """launch.py's result for one command: exit code, wall and CPU
        seconds and peak RSS KiB, the RSS the command's own."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        launcher = [sys.executable, "-S", str(HERE / "launch.py")]
        with open(self.work / "stderr.txt", "w+") as err:
            done = subprocess.run(launcher + cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, stderr=err, check=True,
                                  timeout=TIMEOUT_S + 30)
            result = json.loads(done.stdout)
            if result["exit_code"] != 0:
                err.seek(0)
                tail = err.read().strip().splitlines()[-1:] or ["no stderr"]
                self.fail(f"{cmd[1:4]}... exited {result['exit_code']}: {tail[0]}")
        return result

    def cli(self, argv: list, out: Path) -> tuple:
        """(launch.py result, report or None) of one `numacache` run."""
        self.attempted += 1
        out.unlink(missing_ok=True)
        result = self.spawn([sys.executable, "-m", "numacache.cli", *argv])
        return result, json.loads(out.read_text()) if result["exit_code"] == 0 else None

    def layered(self, mode: str, argv: list, out: Path) -> tuple:
        """(layers.py result, report) of one plain or traced run, or Nones."""
        self.attempted += 1
        result_path = self.work / f"{mode}.json"
        out.unlink(missing_ok=True)
        launched = self.spawn([sys.executable, str(HERE / "layers.py"), mode,
                                str(SRC), str(result_path), "--", *argv])
        if launched["exit_code"] != 0:
            return None, None
        result = json.loads(result_path.read_text())
        if result["exit_code"] != 0:
            self.fail(f"{mode} run: numacache exited {result['exit_code']}")
            return None, None
        error = tracing_error(result) if mode == "traced" else ""
        if error:
            self.fail(f"traced run: {error}")
            return None, None
        return result, json.loads(out.read_text())


def tracing_error(result: dict) -> str:
    """What is wrong with a layers.py result's spans, or "": every span
    must be closed when `main` returns, and the time outside every span
    must lie between 0 and UNATTRIBUTED_MAX of the wall time."""
    unattributed, wall = result["unattributed_ns"], result["wall_ns"]
    if result["open_spans"] or not 0 <= unattributed <= UNATTRIBUTED_MAX * wall:
        return (f"{result['open_spans']} spans left open, "
                f"{unattributed} of {wall} ns unattributed")
    return ""


def spread(values: list) -> dict:
    """Sample count, median and quartiles (quartiles need two samples)."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "min": min(values), "max": max(values)}


def check_gate(bench: Bench, wl, seed_text: str) -> None:
    """Golden digest at the golden seed; reference model on a prefix."""
    out = bench.work / "report.json"
    golden = bench.work / "golden.trace"
    golden.write_text(trace_text(wl, gate.GOLDEN_SEED))
    _, report = bench.cli(wl.argv(str(golden), str(out)), out)
    if report is not None:
        for error in gate.check_golden(wl.name, report):
            bench.fail(error)

    prefix_text = "".join(seed_text.splitlines(True)[:wl.oracle_prefix])
    prefix = bench.work / "prefix.trace"
    prefix.write_text(prefix_text)
    _, report = bench.cli(wl.argv(str(prefix), str(out)), out)
    if report is not None:
        ref_model = gate.load_reference_model(ROOT)
        for error in gate.check_reference(ref_model, wl, parse_accesses(prefix_text),
                                          report):
            bench.fail(error)


def probe_runs(bench: Bench, budget_s: float) -> list:
    """Wall seconds of host-speed probes (probe.py), at least one, until
    they add up to `budget_s`."""
    walls = []
    while True:
        result = bench.spawn([sys.executable, str(HERE / "probe.py")])
        if result["exit_code"] != 0:
            return walls
        walls.append(result["wall_s"])
        if sum(walls) >= budget_s:
            return walls


def setup_runs(bench: Bench, argv: list, out: Path, budget_s: float) -> list:
    """Wall seconds of empty-trace runs, at least one, until they add up
    to `budget_s`."""
    walls = []
    while True:
        result, report = bench.cli(argv, out)
        if report is None:
            return walls
        if report["stats"]["accesses"]:
            bench.fail("empty trace simulated accesses")
        walls.append(result["wall_s"])
        if sum(walls) >= budget_s:
            return walls


def host_metrics(accesses: int, walls: list, setup: list, probes: list) -> tuple:
    """(sim_accesses_per_s, setup_s, slowdown) of one run.

    The speed of a shared host drifts by tens of percent over minutes,
    more than a run can average out. So both host times are scaled by
    `slowdown`, the mean probe time over PROBE_REF_S (above 1 when the host
    ran slower than the reference host): they read what the reference host
    would have taken. Throughput is total accesses over total seconds of
    the timed commands. Both it and the probe mean weigh the host's fast and
    slow spells by the time spent in them, as a median would not when the
    host switches between two speeds. Set-up time is the median empty-trace
    run."""
    slowdown = statistics.fmean(probes) / PROBE_REF_S
    return (accesses * len(walls) / sum(walls) * slowdown,
            statistics.median(setup) / slowdown, slowdown)


def end_to_end(bench: Bench, wl, trace: Path, records: int, seconds: float):
    """End-to-end metrics, the report's stats and timing details.

    Empty-trace runs for `setup_s` and host probes are interleaved with the
    timed runs and take about SETUP_SHARE and PROBE_SHARE of the time, so
    all three sample the whole run. The unscaled host times are in the
    details."""
    out = bench.work / "report.json"
    empty = bench.work / "empty.trace"
    empty.write_text("")
    setup, probes, walls, cpu_rates, rss, first = [], [], [], [], [], None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or (len(walls) < MIN_SAMPLES and bench.failed == 0)):
        setup += setup_runs(bench, wl.argv(str(empty), str(out)), out,
                            SETUP_SHARE / (1 - SETUP_SHARE) * sum(walls) - sum(setup))
        probes += probe_runs(bench, PROBE_SHARE / (1 - PROBE_SHARE)
                             * (sum(walls) + sum(setup)) - sum(probes))
        result, report = bench.cli(wl.argv(str(trace), str(out)), out)
        if report is None:
            continue
        if first is None:
            first = report
        elif gate.digest(report) != gate.digest(first):
            bench.fail("stats differ between two runs of the same trace")
            continue
        walls.append(result["wall_s"])
        cpu_rates.append(records / result["cpu_s"])
        rss.append(result["maxrss_kib"] / 1024)
    if first is None or not setup or not probes:
        return {}, None, {}

    rate, setup_s, slowdown = host_metrics(records, walls, setup, probes)
    stats = first["stats"]
    by_source = stats["misses_by_source"]
    metrics = {
        "sim_accesses_per_s": (rate, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
        "sim_cycles_per_access": (stats["total_cost"] / stats["accesses"], "cycles"),
        "remote_miss_frac": ((by_source["remote_c2c"] + by_source["remote_dram"])
                             / stats["misses"], "ratio"),
    }
    # accesses per CPU second of the CLI process tell a slower host (CPU
    # time grows with wall time) from waiting for a CPU (wall time alone)
    details = {"host_slowdown": slowdown, "probe_s": spread(probes),
               "unscaled_accesses_per_s": spread([records / w for w in walls]),
               "unscaled_setup_s": spread(setup), "peak_rss_mib": spread(rss),
               "accesses_per_cpu_s": spread(cpu_rates)}
    return metrics, stats, details


def per_layer(bench: Bench, wl, trace: Path, records: int, seconds: float):
    """Per-layer metrics (medians over traced runs), the report's stats, details."""
    out = bench.work / "report.json"
    argv = wl.argv(str(trace), str(out))
    reps, first, last = [], None, None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or (not reps and bench.failed == 0)):
        plain, plain_report = bench.layered("plain", argv, out)
        traced, traced_report = bench.layered("traced", argv, out)
        if plain is None or traced is None:
            continue
        first = first or plain_report
        if gate.digest(traced_report) != gate.digest(first) or \
                gate.digest(plain_report) != gate.digest(first):
            bench.fail("traced and plain runs give different stats")
            continue
        reps.append(layers.layer_metrics(traced, plain, first["stats"],
                                         records))
        last = traced
    if not reps:
        return {}, None, {}

    (bench.work / "spans.json").write_text(json.dumps(last))
    metrics = {name: (statistics.median(r[name][0] for r in reps), unit)
               for name, (_, unit) in reps[0].items()}
    details = {
        "traced_runs": len(reps),
        "absent_boundaries": last["absent"],
        "span_count": last["span_count"],
        "wall_s": last["wall_ns"] / 1e9,
        "unattributed_s": last["unattributed_ns"] / 1e9,
        "spans_file": str((bench.work / "spans.json").relative_to(ROOT)),
    }
    return metrics, first["stats"], details


def machine() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg()}


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{wl.name}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(work)
    text = trace_text(wl, args.seed)
    records = text.count("\n")
    trace = work / "workload.trace"
    trace.write_text(text)
    try:
        check_gate(bench, wl, text)
        measure = per_layer if args.trace else end_to_end
        metrics, stats, details = measure(bench, wl, trace, records, args.seconds)
    finally:
        for path in work.glob("*.trace"):
            path.unlink()
    if stats is not None:
        cold_frac = cold_misses(text) / stats["misses"]
        if args.trace:
            metrics["workload.cold_miss_frac"] = (cold_frac, "ratio")
    else:
        bench.fail("no run produced a report")
        cold_frac = None

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("details: " + json.dumps({
        "workload": wl.name, "seed": args.seed,
        "trace_sha256": sha256(text), "records": records,
        "cold_miss_frac": cold_frac, "golden_seed": gate.GOLDEN_SEED,
        "timing": details, "machine": machine(), "errors": bench.errors[:20],
    }))
    return {
        "correct": bench.failed == 0 and stats is not None,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def record_golden() -> None:
    work = ROOT / ".perfbench" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(work)
    digests = {}
    for wl in WORKLOADS.values():
        trace, out = work / "golden.trace", work / "report.json"
        trace.write_text(trace_text(wl, gate.GOLDEN_SEED))
        _, report = bench.cli(wl.argv(str(trace), str(out)), out)
        if report is None:
            sys.exit(f"{wl.name}: {bench.errors[-1]}")
        digests[wl.name] = gate.digest(report)
        trace.unlink()
    gate.GOLDEN_FILE.write_text(json.dumps(digests, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    if not (SRC / "numacache" / "cli.py").is_file() or \
            not (ROOT / "tests" / "reference_model.py").is_file():
        print(f"perfbench: {ROOT} holds no numacache source tree "
              "(src/numacache, tests/reference_model.py)", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
