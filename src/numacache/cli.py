"""Command-line front end: run/compare simulations, generate traces."""

import argparse
import gc
import json
import math
import os
import sys
from contextlib import ExitStack, suppress
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Optional

from .address_map import ConfigError, SocketPairs, TopologyConfig, decode
from .engine import (Decoded, InvariantError, LatencyModel, PolicyConfig, PolicyKind,
                     compare, run)
from .workload import (GeneratorSpec, TraceError, format_trace, generate, open_trace,
                       parse_blocks, read_ahead, record_blocks)

_POLICY_NAMES = {k.value: k for k in PolicyKind}


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_int(text: str) -> int:
    """ASCII decimal digits with an optional leading `-`: no spaces, `+`,
    `_` or other scripts' digits, all of which int() accepts."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int()'s limit
        raise argparse.ArgumentTypeError(
            f"expected an integer of at most {sys.get_int_max_str_digits()} "
            f"digits, got {text!r}") from None


def _parse_float(text: str) -> float:
    """A finite decimal: an optional leading `-`, then ASCII digits with at
    most one `.`; no exponent, `inf`, `nan` or any form that only float()
    accepts."""
    digits = text[1:] if text.startswith("-") else text
    whole, _, fraction = digits.partition(".")
    if digits.isascii() and (whole + fraction).isdigit():
        value = float(text)
        if math.isfinite(value):
            return value
    raise argparse.ArgumentTypeError(f"expected a decimal number, got {text!r}")


def _parse_pairs(text: str) -> list:
    pairs = []
    for chunk in text.split(","):
        a, sep, b = chunk.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"expected socket pairs like 0:1, got {chunk!r}")
        pairs.append((_parse_int(a), _parse_int(b)))
    return pairs


# the converter of each kind of config field, by its annotation
_PARSERS = {int: _parse_int, Optional[int]: _parse_int, float: _parse_float,
            bool: _parse_bool, SocketPairs: _parse_pairs}


class Option(NamedTuple):
    """One option of the subcommands in `commands`: its flag, the config
    object field it sets, whose default and kind are its own, and its echo
    key."""

    flag: str
    commands: tuple
    owner: Optional[type] = None  # the config record whose `field` it sets
    field: str = ""
    echo: str = ""  # dotted path in the report's `config`; "" = not echoed
    type: Callable = str  # `bool` makes a switch that takes no value
    choices: Optional[Iterable] = None  # a dict maps each to a field value
    default: object = None  # for a field, filled in by `typed`
    help: Optional[str] = None
    metavar: Optional[str] = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def typed(self) -> "Option":
        """This option, with the converter, or for an Enum field the
        choices, of the field it sets, unless it gives its own choices;
        and with the field's default, as its flag would give it."""
        if self.owner is None:
            return self
        opt, hint = self, self.owner.__annotations__[self.field]
        if self.choices is None:
            opt = (self._replace(type=_PARSERS[hint]) if hint in _PARSERS
                   else self._replace(choices={member.value: member for member in hint}))
        default = self.owner._field_defaults.get(self.field)  # None without one
        if isinstance(opt.choices, dict):
            default = next((k for k, v in opt.choices.items() if v == default), None)
        return opt._replace(default=default)


_ALL = ("run", "compare", "gen", "validate-trace")
_SOURCE = ("run", "compare", "gen")
_SIM = ("run", "compare")
_GEN = "trace_source.generator."

# in the order of the report's `config` echo
_OPTIONS = tuple(opt.typed() for opt in (
    Option("--sockets", _ALL, TopologyConfig, "num_sockets", "topology.sockets"),
    Option("--cores-per-socket", _ALL, TopologyConfig, "cores_per_socket",
           "topology.cores_per_socket"),
    Option("--sets", _ALL, TopologyConfig, "llc_sets", "topology.sets"),
    Option("--assoc", _ALL, TopologyConfig, "llc_assoc", "topology.assoc"),
    Option("--line-size", _ALL, TopologyConfig, "line_size_bytes",
           "topology.line_size"),
    Option("--address-width", _ALL, TopologyConfig, "address_width",
           "topology.address_width"),
    # the echo holds the policy kinds and the thresholds they resolve to
    Option("--policy", ("run",), PolicyConfig, "kind", "policies"),
    Option("--policies", ("compare",), echo="policies", default="lru,biased",
           help="comma-separated policy names"),
    Option("--t-local", _SIM, PolicyConfig, "t_local", "t_local"),
    Option("--t-remote", _SIM, PolicyConfig, "t_remote", "t_remote"),
    Option("--window", _SIM, PolicyConfig, "window_size", "adaptive.window"),
    Option("--high-water", _SIM, PolicyConfig, "high_water", "adaptive.high_water"),
    Option("--low-water", _SIM, PolicyConfig, "low_water", "adaptive.low_water"),
    Option("--initial-bias", _SIM, PolicyConfig, "initial_bias",
           "adaptive.initial_bias", metavar="{on,off}"),
    # its words name the two values of a bool
    Option("--remote-miss-def", _SIM, PolicyConfig, "count_remote_dram",
           "adaptive.remote_miss_def", choices={"any-remote": True, "c2c-only": False}),
    Option("--lat-llc", _SIM, LatencyModel, "llc_hit", "latency.llc_hit"),
    Option("--lat-c2c", _SIM, LatencyModel, "remote_c2c", "latency.remote_c2c"),
    Option("--lat-ldram", _SIM, LatencyModel, "local_dram", "latency.local_dram"),
    Option("--lat-rdram", _SIM, LatencyModel, "remote_dram", "latency.remote_dram"),
    # the echo keeps whichever of the file and the generator is the source
    Option("--trace", _SIM, echo="trace_source.file",
           help="trace file to load ('-' for stdin)"),
    Option("--gen-kind", _SOURCE, GeneratorSpec, "kind", _GEN + "kind"),
    Option("--working-set", _SOURCE, GeneratorSpec, "working_set_lines",
           _GEN + "working_set_lines"),
    Option("--iterations", _SOURCE, GeneratorSpec, "iterations", _GEN + "iterations"),
    Option("--pairs", _SOURCE, GeneratorSpec, "sharing_socket_pairs", _GEN + "pairs",
           help="sharing socket pairs, e.g. 0:1,1:0"),
    Option("--home-socket", _SOURCE, GeneratorSpec, "home_socket",
           _GEN + "home_socket"),
    Option("--seed", _SOURCE, GeneratorSpec, "rng_seed", _GEN + "seed"),
    Option("--report", _SIM, choices=("json", "table"), default="json"),
    Option("--out", _SIM, help="write the report here instead of stdout"),
    Option("--out", ("gen",), help="write the trace here instead of stdout"),
    Option("--validate", _SIM, echo="validate", type=bool, default=False,
           help="check coherence invariants after every access"),
    Option("--trace", ("validate-trace",), required=True,
           help="trace file to check ('-' for stdin)"),
))


def build_parser(config: Optional[dict] = None,
                 command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `numacache` parser; `config` maps option dests to config-file
    values, which replace the defaults. Every subcommand is listed, but
    when `command` names one, only its options are added."""
    config = config or {}
    built = (command,) if command in _COMMANDS else tuple(_COMMANDS)
    parser = argparse.ArgumentParser(
        prog="numacache",
        description="Trace-driven multi-socket LLC simulator with "
                    "remote-sharing-biased replacement",
        # `--conf file` would reach the parser, not _split_config
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text)
                for name, (text, _) in _COMMANDS.items()}
    for opt in _OPTIONS:
        kwargs = dict(default=config.get(opt.dest, opt.default),
                      help=opt.help, required=opt.required and opt.dest not in config)
        if opt.type is bool:
            kwargs["action"] = "store_true"
        else:
            kwargs.update(type=opt.type, metavar=opt.metavar,
                          choices=sorted(opt.choices) if opt.choices else None)
        for name in opt.commands:
            if name in built:
                commands[name].add_argument(opt.flag, **kwargs)
    return parser


def _split_config(argv: list) -> tuple[list, Optional[str]]:
    """`argv` without `--config file` (or `--config=file`), and that path
    (None without one)."""
    rest, paths = [], []
    args = iter(argv)
    for arg in args:
        if arg == "--config":
            paths.append(next(args, None))
            if paths[-1] is None:
                raise ConfigError("--config needs a file path")
        elif arg.startswith("--config="):
            paths.append(arg.partition("=")[2])
        else:
            rest.append(arg)
    if len(paths) > 1:
        raise ConfigError("--config given more than once")
    return rest, paths[0] if paths else None


def _read_config(path: str) -> dict:
    """Option dest -> (line number, value) of each key=value line of the
    config file at `path`; a key is a flag without `--`, with `_` accepted
    for `-`.

    The file is read as UTF-8. A byte that is not UTF-8 decodes to a
    surrogate: a path keeps it as that byte, and any other value fails its
    check. Each error names its line.
    """
    options = {opt.flag[2:]: opt for opt in _OPTIONS}
    values = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for number, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                key, sep, value = text.partition("=")
                if not sep:
                    raise ConfigError(f"{text!r} is not key=value")
                key, value = key.strip().replace("_", "-"), value.strip()
                opt = options.get(key)
                if opt is None:
                    raise ConfigError(f"unknown config key {key!r}")
                # argparse checks no default, so convert and check as a flag
                if opt.type is bool:
                    value = _parse_bool(value)
                elif opt.choices is not None and value not in opt.choices:
                    raise ConfigError(f"config key {key!r} must be one of "
                                      f"{', '.join(sorted(opt.choices))}, "
                                      f"got {value!r}")
                else:
                    value = opt.type(value)
                values[opt.dest] = number, value
            # ConfigError is a ValueError; argparse prints the converters'
            # ArgumentTypeError messages as they are
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ConfigError(f"config line {number}: {exc}") from None
    return values


def _build(cls: type, args):
    """A `cls` config object with the fields its options set."""
    fields = {}
    for opt in _OPTIONS:
        if opt.owner is cls and args.command in opt.commands:
            value = getattr(args, opt.dest)
            fields[opt.field] = opt.choices[value] if isinstance(opt.choices, dict) else value
    return cls(**fields)


def _load_trace(args, topo: TopologyConfig, files: ExitStack) -> Decoded:
    """The run's one trace source, parsed or generated and decoded a block
    at a time as it is consumed (see `read_ahead`); a trace file and the
    reader process last until `files` closes."""
    if (args.trace is None) == (args.gen_kind is None):
        raise ConfigError("give exactly one trace source: --trace or --gen-kind")
    if args.trace is not None:
        blocks = parse_blocks(files.enter_context(open_trace(args.trace)), topo)
    else:
        blocks = record_blocks(generate(_build(GeneratorSpec, args), topo), topo)
    return Decoded(topo, read_ahead(decode(blocks, topo), files))


def _config_echo(args, topo, policies) -> dict:
    """Everything needed to reproduce the run, echoed into the report."""
    echo = {}
    for opt in _OPTIONS:
        if opt.echo and args.command in opt.commands:
            *sections, key = opt.echo.split(".")
            node = echo
            for section in sections:
                node = node.setdefault(section, {})
            node[key] = getattr(args, opt.dest)
    del echo["trace_source"]["file" if args.trace is None else "generator"]
    echo["policies"] = [p.kind.value for p in policies]
    echo["t_local"], echo["t_remote"] = policies[0].thresholds(topo.llc_assoc)
    return echo


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

    width0 = max(len(label) for label, _ in _TABLE_ROWS)
    widths = [max([len(name)] + [len(cell(stats, p)) for _, p in _TABLE_ROWS])
              for name, stats in named_stats]
    lines = ["  ".join([" " * width0] + [
        name.rjust(w) for (name, _), w in zip(named_stats, widths)])]
    for label, path in _TABLE_ROWS:
        row = [label.ljust(width0)]
        for (_, stats), w in zip(named_stats, widths):
            row.append(cell(stats, path).rjust(w))
        lines.append("  ".join(row))
    return "\n".join(lines) + "\n"


def _check_out(out: Optional[str]) -> None:
    """Fail before the simulation if the report file `out` cannot be opened
    for writing, truncating nothing (it may be the trace) and adding none."""
    if out is not None:
        try:
            open(out, "x").close()
        except FileExistsError:  # a FIFO's reader would take a close for the end
            if os.path.isfile(out) or os.path.isdir(out):
                open(out, "a").close()
        else:
            os.remove(out)


def _write_output(chunks: Iterable[str], out: Optional[str]) -> None:
    if out is not None:  # an empty path is an io error, not stdout
        with open(out, "w") as fh:
            fh.writelines(chunks)
    elif sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise OSError("stdout is closed")
    else:
        sys.stdout.writelines(chunks)


def _write_report(args, report: dict, named_stats: list) -> int:
    # the encoder's chunks are written as it makes them: the report's text
    # is never held whole
    chunks = (chain(json.JSONEncoder(indent=2).iterencode(report), ["\n"])
              if args.report == "json" else [_render_table(named_stats)])
    _write_output(chunks, args.out)
    return 0


def _cmd_run(args) -> int:
    topo = _build(TopologyConfig, args)
    with ExitStack() as files:
        trace = _load_trace(args, topo, files)
        policy, lat = _build(PolicyConfig, args), _build(LatencyModel, args)
        _check_out(args.out)
        stats = run(trace, topo, policy, validate=args.validate)
    stats = stats.to_dict(lat)
    report = {"config": _config_echo(args, topo, [policy]), "stats": stats}
    return _write_report(args, report, [(args.policy, stats)])


def _cmd_compare(args) -> int:
    topo = _build(TopologyConfig, args)
    kinds = []
    for name in filter(None, (n.strip() for n in args.policies.split(","))):
        if name not in _POLICY_NAMES:
            raise ConfigError(f"unknown policy {name!r}")
        kinds.append(_POLICY_NAMES[name])
    with ExitStack() as files:
        trace = _load_trace(args, topo, files)
        # the policy record is of the default kind: compare has no --policy
        policy, lat = _build(PolicyConfig, args), _build(LatencyModel, args)
        policies = [policy._replace(kind=kind) for kind in kinds]
        _check_out(args.out)
        result = compare(trace, topo, policies, lat, args.validate)
    report = {"config": _config_echo(args, topo, policies), **result}
    named = [(e["policy"], e["stats"]) for e in result["policies"]]
    return _write_report(args, report, named)


def _cmd_gen(args) -> int:
    topo = _build(TopologyConfig, args)
    if args.gen_kind is None:
        raise ConfigError("gen requires --gen-kind")
    # generate checks its inputs up front, so no record fails mid-write
    records = generate(_build(GeneratorSpec, args), topo)
    _write_output((line + "\n" for line in format_trace(records)), args.out)
    return 0


def _cmd_validate_trace(args) -> int:
    topo = _build(TopologyConfig, args)
    with open_trace(args.trace) as fh:
        count = sum(len(ops) for _, _, ops, _ in parse_blocks(fh, topo))
    _write_output([f"ok: {count} records\n"], None)
    return 0


# name -> (help, handler) of each subcommand
_COMMANDS = {
    "run": ("simulate one policy", _cmd_run),
    "compare": ("run several policies on one trace", _cmd_compare),
    "gen": ("emit a synthetic trace", _cmd_gen),
    "validate-trace": ("parse-check a trace file", _cmd_validate_trace),
}


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, config = _split_config(argv)
        config = {} if config is None else _read_config(config)
        # the first argument that is not an option names the subcommand:
        # --config, the one top-level option that takes a value, is gone
        command = next((arg for arg in argv if not arg.startswith("-")), None)
        args = build_parser(
            {dest: value for dest, (_, value) in config.items()}, command
        ).parse_args(argv)
        # the namespace holds only the subcommand's options; a key for any
        # other option is refused, as its flag would be
        for dest, (number, _) in config.items():
            if not hasattr(args, dest):
                flag = "--" + dest.replace("_", "-")
                raise ConfigError(
                    f"config line {number}: {args.command} does not take {flag}")
        return _COMMANDS[args.command][1](args)
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # stdout's reader went away (`| head`): stop quietly, with stdout
        # pointed at os.devnull so the flush at exit cannot fail again
        with suppress(OSError):  # a stdout with no file descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """The program: `python -m numacache.cli` and the `numacache` script.
    It freezes the collector before `main`, so that the collections at
    exit skip every object that start-up made, on every way out of
    `main`, `SystemExit` included; `main` itself leaves the collector to
    its caller."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
