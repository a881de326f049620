"""Command-line front end: run/compare simulations, generate traces."""

import argparse
import json
import sys
from contextlib import nullcontext
from typing import Optional

from .adaptive import AdaptiveConfig
from .address_map import ConfigError, TopologyConfig
from .engine import InvariantError, LatencyModel, compare, run
from .replacement import PolicyConfig, PolicyKind
from .workload import (
    GeneratorKind,
    GeneratorSpec,
    TraceError,
    format_trace,
    generate,
    parse_trace,
)

_POLICY_NAMES = {
    "lru": PolicyKind.LRU_ONLY,
    "biased": PolicyKind.BIASED_ALWAYS,
    "adaptive": PolicyKind.BIASED_ADAPTIVE,
}

_GEN_KINDS = {k.value: k for k in GeneratorKind}


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_pairs(text: str) -> list:
    pairs = []
    for chunk in text.split(","):
        a, sep, b = chunk.partition(":")
        if not sep:
            raise ValueError(f"expected socket pairs like 0:1, got {chunk!r}")
        pairs.append((int(a), int(b)))
    return pairs


def _add_topology_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sockets", type=int, default=2)
    p.add_argument("--cores-per-socket", type=int, default=1)
    p.add_argument("--sets", type=int, default=16)
    p.add_argument("--assoc", type=int, default=4)
    p.add_argument("--line-size", type=int, default=64)
    p.add_argument("--address-width", type=int, default=32)


def _add_trace_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", help="trace file to load ('-' for stdin)")
    p.add_argument("--gen-kind", choices=sorted(_GEN_KINDS))
    p.add_argument("--working-set", type=int, default=8)
    p.add_argument("--iterations", type=int, default=4)
    p.add_argument("--pairs", type=_parse_pairs, default=[(0, 1)],
                   help="sharing socket pairs, e.g. 0:1,1:0")
    p.add_argument("--home-socket", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-local", type=int, default=None)
    p.add_argument("--t-remote", type=int, default=None)
    p.add_argument("--window", type=int, default=1024)
    p.add_argument("--high-water", type=float, default=0.5)
    p.add_argument("--low-water", type=float, default=0.1)
    p.add_argument("--initial-bias", type=_parse_bool, default=True,
                   metavar="{on,off}")
    p.add_argument("--remote-miss-def", choices=["any-remote", "c2c-only"],
                   default="any-remote")
    p.add_argument("--lat-llc", type=int, default=30)
    p.add_argument("--lat-c2c", type=int, default=150)
    p.add_argument("--lat-ldram", type=int, default=200)
    p.add_argument("--lat-rdram", type=int, default=350)
    p.add_argument("--report", choices=["json", "table"], default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--validate", action="store_true",
                   help="check coherence invariants after every access")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numacache",
        description="Trace-driven multi-socket LLC simulator with "
                    "remote-sharing-biased replacement",
        # `--conf file` would reach the parser, not _apply_config_file
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key=value defaults file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one policy")
    p_run.add_argument("--policy", choices=sorted(_POLICY_NAMES), default="lru")
    for add in (_add_topology_flags, _add_trace_flags, _add_sim_flags):
        add(p_run)

    p_cmp = sub.add_parser("compare", help="run several policies on one trace")
    p_cmp.add_argument("--policies", default="lru,biased",
                       help="comma-separated policy names")
    for add in (_add_topology_flags, _add_trace_flags, _add_sim_flags):
        add(p_cmp)

    p_gen = sub.add_parser("gen", help="emit a synthetic trace")
    _add_topology_flags(p_gen)
    _add_trace_flags(p_gen)
    p_gen.add_argument("--out", help="write the trace here instead of stdout")

    p_val = sub.add_parser("validate-trace", help="parse-check a trace file")
    _add_topology_flags(p_val)
    p_val.add_argument("--trace", required=True,
                       help="trace file to check ('-' for stdin)")

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list) -> list:
    """Turn `--config file` (or `--config=file`) key=value pairs into
    parser defaults."""
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 == len(argv):
                raise ConfigError("--config needs a file path")
            path, argv = argv[i + 1], argv[:i] + argv[i + 2:]
            break
        if arg.startswith("--config="):
            path, argv = arg.partition("=")[2], argv[:i] + argv[i + 1:]
            break
    else:
        return argv
    defaults = {}
    with open(path) as fh:
        for raw in fh:
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ConfigError(f"config line {text!r} is not key=value")
            defaults[key.strip().replace("-", "_")] = value.strip()
    # parser defaults skip argparse's checks, so apply each option's type
    # converter and choices here to make config values behave like flags
    actions = {}
    for sp in parser._subparsers._group_actions[0].choices.values():
        for action in sp._actions:
            if action.dest != "help":
                actions.setdefault(action.dest, action)
    typed = {}
    for dest, value in defaults.items():
        key = dest.replace("_", "-")
        action = actions.get(dest)
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        if action.nargs == 0:  # store_true flags
            typed[dest] = _parse_bool(value)
        else:
            typed[dest] = action.type(value) if action.type else value
            if action.choices is not None and typed[dest] not in action.choices:
                raise ConfigError(f"config key {key!r} must be one of "
                                  f"{', '.join(action.choices)}, got {value!r}")
    for sp in parser._subparsers._group_actions[0].choices.values():
        sp.set_defaults(**{
            d: v for d, v in typed.items()
            if any(a.dest == d for a in sp._actions)
        })
    return argv


def _topology(args) -> TopologyConfig:
    return TopologyConfig(
        num_sockets=args.sockets,
        cores_per_socket=args.cores_per_socket,
        llc_sets=args.sets,
        llc_assoc=args.assoc,
        line_size_bytes=args.line_size,
        address_width=args.address_width,
    )


def _generator_spec(args) -> GeneratorSpec:
    return GeneratorSpec(
        kind=_GEN_KINDS[args.gen_kind],
        working_set_lines=args.working_set,
        iterations=args.iterations,
        sharing_socket_pairs=args.pairs,
        rng_seed=args.seed,
        home_socket=args.home_socket,
    )


def _open_trace(path: str):
    """The trace file at `path`, or stdin (left open) for '-'."""
    return nullcontext(sys.stdin) if path == "-" else open(path)


def _load_trace(args, topo: TopologyConfig) -> list:
    if (args.trace is None) == (args.gen_kind is None):
        raise ConfigError("give exactly one trace source: --trace or --gen-kind")
    if args.trace is not None:
        with _open_trace(args.trace) as fh:
            return list(parse_trace(fh, topo))
    return generate(_generator_spec(args), topo)


def _policy(name: str, args) -> PolicyConfig:
    if name not in _POLICY_NAMES:
        raise ConfigError(f"unknown policy {name!r}")
    return PolicyConfig(_POLICY_NAMES[name], args.t_local, args.t_remote)


def _adaptive(args) -> AdaptiveConfig:
    return AdaptiveConfig(
        window_size=args.window,
        high_water=args.high_water,
        low_water=args.low_water,
        initial_bias=args.initial_bias,
        count_remote_dram=args.remote_miss_def == "any-remote",
    )


def _latency(args) -> LatencyModel:
    return LatencyModel(args.lat_llc, args.lat_c2c, args.lat_ldram, args.lat_rdram)


def _config_echo(args, topo, policies) -> dict:
    """Everything needed to reproduce the run, echoed into the report."""
    if args.trace is not None:
        source = {"file": args.trace}
    else:
        source = {
            "generator": {
                "kind": args.gen_kind,
                "working_set_lines": args.working_set,
                "iterations": args.iterations,
                "pairs": [list(p) for p in args.pairs],
                "home_socket": args.home_socket,
                "seed": args.seed,
            }
        }
    t_local, t_remote = policies[0].thresholds(topo.llc_assoc)
    return {
        "topology": {
            "sockets": topo.num_sockets,
            "cores_per_socket": topo.cores_per_socket,
            "sets": topo.llc_sets,
            "assoc": topo.llc_assoc,
            "line_size": topo.line_size_bytes,
            "address_width": topo.address_width,
        },
        "policies": [p.kind.value for p in policies],
        "t_local": t_local,
        "t_remote": t_remote,
        "adaptive": {
            "window": args.window,
            "high_water": args.high_water,
            "low_water": args.low_water,
            "initial_bias": args.initial_bias,
            "remote_miss_def": args.remote_miss_def,
        },
        "latency": {
            "llc_hit": args.lat_llc,
            "remote_c2c": args.lat_c2c,
            "local_dram": args.lat_ldram,
            "remote_dram": args.lat_rdram,
        },
        "trace_source": source,
        "validate": bool(args.validate),
    }


_TABLE_ROWS = [
    ("accesses", ("accesses",)),
    ("hits", ("hits",)),
    ("misses", ("misses",)),
    ("remote C2C misses", ("misses_by_source", "remote_c2c")),
    ("local DRAM misses", ("misses_by_source", "local_dram")),
    ("remote DRAM misses", ("misses_by_source", "remote_dram")),
    ("writebacks", ("writebacks",)),
    ("bias events", ("bias_events",)),
    ("counter resets", ("counter_resets",)),
    ("adaptive toggles", ("adaptive_toggles",)),
    ("total cost", ("total_cost",)),
]


def _render_table(named_stats: list) -> str:
    """Aligned text table; one column per policy."""
    def cell(stats: dict, path) -> str:
        value = stats
        for key in path:
            value = value[key]
        if isinstance(value, list):
            value = len(value)
        return str(value)

    names = [name for name, _ in named_stats]
    width0 = max(len(label) for label, _ in _TABLE_ROWS)
    widths = []
    for i, (name, stats) in enumerate(named_stats):
        w = max([len(name)] + [len(cell(stats, p)) for _, p in _TABLE_ROWS])
        widths.append(w)
    lines = ["  ".join([" " * width0] + [n.rjust(w) for n, w in zip(names, widths)])]
    for label, path in _TABLE_ROWS:
        row = [label.ljust(width0)]
        for (_, stats), w in zip(named_stats, widths):
            row.append(cell(stats, path).rjust(w))
        lines.append("  ".join(row))
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    topo = _topology(args)
    policy = _policy(args.policy, args)
    trace = _load_trace(args, topo)
    stats = run(trace, topo, policy, _adaptive(args), _latency(args), args.validate)
    report = {"config": _config_echo(args, topo, [policy]), "stats": stats.to_dict()}
    if args.report == "json":
        _write_output(json.dumps(report, indent=2) + "\n", args.out)
    else:
        _write_output(_render_table([(args.policy, report["stats"])]), args.out)
    return 0


def _cmd_compare(args) -> int:
    topo = _topology(args)
    names = [n.strip() for n in args.policies.split(",") if n.strip()]
    policies = [_policy(n, args) for n in names]
    trace = _load_trace(args, topo)
    result = compare(trace, topo, policies, _adaptive(args), _latency(args),
                     args.validate)
    report = {"config": _config_echo(args, topo, policies), **result}
    if args.report == "json":
        _write_output(json.dumps(report, indent=2) + "\n", args.out)
    else:
        named = [(e["policy"], e["stats"]) for e in result["policies"]]
        _write_output(_render_table(named), args.out)
    return 0


def _cmd_gen(args) -> int:
    topo = _topology(args)
    if args.gen_kind is None:
        raise ConfigError("gen requires --gen-kind")
    records = generate(_generator_spec(args), topo)
    text = "".join(line + "\n" for line in format_trace(records))
    _write_output(text, args.out)
    return 0


def _cmd_validate_trace(args) -> int:
    topo = _topology(args)
    with _open_trace(args.trace) as fh:
        count = sum(1 for _ in parse_trace(fh, topo))
    print(f"ok: {count} records")
    return 0


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        handler = {
            "run": _cmd_run,
            "compare": _cmd_compare,
            "gen": _cmd_gen,
            "validate-trace": _cmd_validate_trace,
        }[args.command]
        return handler(args)
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
