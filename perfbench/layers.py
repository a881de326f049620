"""Per-layer tracing of the numacache CLI, from outside the package.

The traced run wraps the public boundaries of each module (the layers)
with span recorders, runs `numacache.cli.main(argv)` in this process and
writes the aggregated spans out when it ends. A span has a name, a start,
an end and a parent; its self time is its duration minus that of its
child spans. A boundary that no longer exists is reported as absent, and
its time stays in its caller's self time.

Run one CLI command in a fresh interpreter, traced or plain:

    python3 perfbench/layers.py {traced,plain} SRC RESULT -- CLI-ARGS...
"""

import sys
import time

PACKAGE = "numacache"

if __name__ == "__main__" and len(sys.argv) > 2:
    # Import the CLI before anything else, so that `import_s` holds its
    # whole import chain and not only the part this module has not loaded.
    sys.path.insert(0, sys.argv[2])
    _start = time.perf_counter()
    import numacache.cli  # noqa: F401
    IMPORT_S = time.perf_counter() - _start

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import contextmanager  # noqa: E402

SPAN_KEEP = 4096  # spans kept whole for the spans file

# (layer, attribute path) pairs; the layer is the module's name.
BOUNDARIES = (
    ("workload", "parse_trace"),
    ("address_map", "check_address"),
    ("address_map", "line_address"),
    ("address_map", "set_index"),
    ("address_map", "line_tag"),
    ("address_map", "home_node"),
    ("address_map", "rebuild_line_address"),
    ("replacement", "CacheSet.find"),
    ("replacement", "CacheSet.touch"),
    ("replacement", "CacheSet.first_invalid"),
    ("replacement", "CacheSet.fill"),
    ("replacement", "select_victim"),
    ("replacement", "lru_way"),
    ("coherence", "CoherenceSystem.__init__"),
    ("coherence", "CoherenceSystem.handle_read"),
    ("coherence", "CoherenceSystem.handle_write"),
    ("coherence", "CoherenceSystem.evict_line"),
    ("coherence", "CoherenceSystem.check_global_invariants"),
    ("adaptive", "AdaptiveState.record_miss"),
    ("engine", "run"),
    ("engine", "LatencyModel.cost"),
    ("cli", "_load_trace"),
)
# boundaries whose growth of the peak resident set is recorded
RSS_BOUNDARIES = {"coherence.CoherenceSystem.__init__", "cli._load_trace"}

_DONE = object()


def layer_of(name: str) -> str:
    return name.partition(".")[0]


class Recorder:
    """Span stack plus per-name totals: [calls, entries, self ns, total ns].

    `entries` counts calls made from outside the span's own layer.
    `root_ns` sums the durations of spans without a parent. The first
    SPAN_KEEP spans are also kept whole as (id, name, start, end, parent id).
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack = []  # [id, name, start, child ns]
        self.totals = {}
        self.spans = []
        self.last_end = {}
        self.rss_kib = {}
        self.count = 0
        self.root_ns = 0

    def enter(self, name: str) -> None:
        self.stack.append([self.count, name, self.clock(), 0])
        self.count += 1

    def exit(self) -> None:
        sid, name, start, child = self.stack.pop()
        end = self.clock()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0, 0]
        total[0] += 1
        total[2] += duration - child
        total[3] += duration
        if parent is None:
            total[1] += 1
            self.root_ns += duration
        else:
            parent[3] += duration
            if layer_of(parent[1]) != layer_of(name):
                total[1] += 1
        self.last_end[name] = end
        if len(self.spans) < SPAN_KEEP:
            self.spans.append((sid, name, start, end, parent[0] if parent else None))


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _wrap(fn, name: str, rec: Recorder):
    enter, exit_ = rec.enter, rec.exit
    if inspect.isgeneratorfunction(fn):
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                enter(name)
                try:
                    item = next(gen, _DONE)
                finally:
                    exit_()
                if item is _DONE:
                    return
                yield item
    elif name in RSS_BOUNDARIES:
        def wrapper(*args, **kwargs):
            before = _maxrss_kib()
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
                grown = _maxrss_kib() - before
                rec.rss_kib[name] = max(rec.rss_kib.get(name, 0), grown)
    else:
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
    return functools.wraps(fn)(wrapper)


@contextmanager
def installed(rec: Recorder, boundaries=BOUNDARIES):
    """Wrap every boundary that exists; yield the names of those that do not.

    A module-level function is replaced wherever a module of the package
    holds a reference to it, so `from .x import f` call sites are traced
    too. Originals are restored on exit.
    """
    patches, absent = [], []
    for layer, path in boundaries:
        name = f"{layer}.{path}"
        *outer, attr = path.split(".")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{layer}")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError, TypeError):
            absent.append(name)
            continue
        if not inspect.isfunction(original):
            absent.append(name)
            continue
        wrapper = _wrap(original, name, rec)
        if isinstance(owner, type):
            holders = [(owner, attr)]
        else:
            holders = [
                (module, key)
                for mod_name, module in list(sys.modules.items())
                if module is not None
                and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
                for key, value in list(vars(module).items())
                if value is original
            ]
        for holder, key in holders:
            patches.append((holder, key, original))
            setattr(holder, key, wrapper)
    try:
        yield absent
    finally:
        for holder, key, original in reversed(patches):
            setattr(holder, key, original)


def run_cli(mode: str, argv: list, src: str, import_s: float) -> dict:
    """Run `numacache.cli.main(argv)` once; the CLI, imported from `src`
    in `import_s` seconds, is already loaded."""
    cli = sys.modules[f"{PACKAGE}.cli"]
    if not cli.__file__.startswith(src):
        raise ImportError(f"{PACKAGE} was imported from {cli.__file__}, not {src}")
    rec = Recorder()
    with installed(rec, BOUNDARIES if mode == "traced" else ()) as absent:
        start = time.perf_counter_ns()
        code = cli.main(argv)
        end = time.perf_counter_ns()
    run_end = rec.last_end.get("engine.run")
    return {
        "exit_code": code,
        "import_s": import_s,
        "wall_ns": end - start,
        "open_spans": len(rec.stack),
        "unattributed_ns": end - start - rec.root_ns,
        "report_ns": end - run_end if run_end is not None else 0,
        "absent": absent,
        "totals": rec.totals,
        "rss_kib": rec.rss_kib,
        "span_count": rec.count,
        "spans": rec.spans,
    }


def layer_metrics(traced: dict, plain: dict, stats: dict, records: int) -> dict:
    """Per-layer metrics {name: (value, unit)} of one traced `run` command
    over `records` trace records (one access each) whose report has the
    stats body `stats`. A metric whose boundary is absent or never called
    reads 0.
    """
    totals = traced["totals"]
    misses = stats["misses"]

    def calls(name):
        return totals.get(name, [0])[0]

    def self_us(*names):
        return sum(totals[n][2] for n in names if n in totals) / 1e3

    def per(value, count):
        return value / count if count else 0.0

    amap = [n for n in totals if layer_of(n) == "address_map"]
    # rebuilding a line address from (tag, set) does no range check
    checked = [n for n in amap if n != "address_map.rebuild_line_address"]
    victims = calls("replacement.select_victim")
    evictions = calls("coherence.CoherenceSystem.evict_line")
    init = totals.get("coherence.CoherenceSystem.__init__", [0, 0, 0, 0])
    return {
        "workload.parse_us_per_record":
            (per(self_us("workload.parse_trace"), records), "us"),
        "address_map.decode_us_per_access": (per(self_us(*amap), records), "us"),
        "address_map.calls_per_access":
            (per(sum(totals[n][1] for n in checked), records), "calls"),
        "replacement.lookup_us_per_access": (per(self_us(
            "replacement.CacheSet.find", "replacement.CacheSet.touch"),
            records), "us"),
        "replacement.victim_us_per_eviction": (per(self_us(
            "replacement.select_victim", "replacement.lru_way"), victims), "us"),
        "replacement.fill_us_per_miss": (per(self_us(
            "replacement.CacheSet.fill", "replacement.CacheSet.first_invalid"),
            misses), "us"),
        "replacement.bias_fire_frac":
            (per(stats["bias_events"], victims), "ratio"),
        "coherence.read_us": (per(
            self_us("coherence.CoherenceSystem.handle_read"),
            calls("coherence.CoherenceSystem.handle_read")), "us"),
        "coherence.write_us": (per(
            self_us("coherence.CoherenceSystem.handle_write"),
            calls("coherence.CoherenceSystem.handle_write")), "us"),
        "coherence.evict_us_per_eviction": (per(
            self_us("coherence.CoherenceSystem.evict_line"), evictions), "us"),
        "coherence.validate_us_per_access": (per(self_us(
            "coherence.CoherenceSystem.check_global_invariants"), records), "us"),
        "coherence.build_s": (per(init[3] / 1e9, init[0]), "s"),
        "coherence.build_rss_mib": (traced["rss_kib"].get(
            "coherence.CoherenceSystem.__init__", 0) / 1024, "MiB"),
        "adaptive.record_miss_us": (per(
            self_us("adaptive.AdaptiveState.record_miss"),
            calls("adaptive.AdaptiveState.record_miss")), "us"),
        "adaptive.windows": (sum(len(p["window_fractions"])
                                 for p in stats["per_socket"]), "count"),
        "adaptive.toggles": (len(stats["adaptive_toggles"]), "count"),
        "engine.self_us_per_access": (per(self_us("engine.run"), records), "us"),
        "engine.cost_us_per_access":
            (per(self_us("engine.LatencyModel.cost"), records), "us"),
        "cli.import_s": (traced["import_s"], "s"),
        "cli.trace_rss_mib":
            (traced["rss_kib"].get("cli._load_trace", 0) / 1024, "MiB"),
        "cli.report_s": (traced["report_ns"] / 1e9, "s"),
        "trace.unattributed_frac":
            (per(traced["unattributed_ns"], traced["wall_ns"]), "ratio"),
        "trace.slowdown": (per(traced["wall_ns"], plain["wall_ns"]), "x"),
    }


def main(argv: list) -> int:
    if len(argv) < 4 or argv[0] not in ("traced", "plain") or argv[3] != "--":
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    mode, src, result_path, cli_argv = argv[0], argv[1], argv[2], argv[4:]
    result = run_cli(mode, cli_argv, src, IMPORT_S)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
