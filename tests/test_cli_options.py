"""Every run option of the CLI, given as a flag and as a config-file key.

Each case gives every option it names a non-default value. The flags and a
`--config` file holding the same values must write the same bytes (to
`--out`, or to stdout for a command without it), and those bytes are
pinned, so a flag that sets the wrong field, a config key that converts
differently from its flag, or an echo key that moves fails here. The
echoed `config` of two cases is also checked field by field.
"""

import hashlib
import json
import re

import pytest

from numacache import cli
from numacache.cli import main

# the option strings each `--help` listed when the parser was written by
# hand; the generated parser must offer exactly these
HELP_OPTIONS = {
    None: ["-h", "--help", "--config"],
    "run": [
        "-h", "--help", "--policy", "--sockets", "--cores-per-socket",
        "--sets", "--assoc", "--line-size", "--address-width", "--trace",
        "--gen-kind", "--working-set", "--iterations", "--pairs",
        "--home-socket", "--seed", "--t-local", "--t-remote", "--window",
        "--high-water", "--low-water", "--initial-bias", "--remote-miss-def",
        "--lat-llc", "--lat-c2c", "--lat-ldram", "--lat-rdram", "--report",
        "--out", "--validate",
    ],
    "compare": [
        "-h", "--help", "--policies", "--sockets", "--cores-per-socket",
        "--sets", "--assoc", "--line-size", "--address-width", "--trace",
        "--gen-kind", "--working-set", "--iterations", "--pairs",
        "--home-socket", "--seed", "--t-local", "--t-remote", "--window",
        "--high-water", "--low-water", "--initial-bias", "--remote-miss-def",
        "--lat-llc", "--lat-c2c", "--lat-ldram", "--lat-rdram", "--report",
        "--out", "--validate",
    ],
    "gen": [
        "-h", "--help", "--sockets", "--cores-per-socket", "--sets", "--assoc",
        "--line-size", "--address-width", "--gen-kind", "--working-set",
        "--iterations", "--pairs", "--home-socket", "--seed", "--out",
    ],
    "validate-trace": [
        "-h", "--help", "--sockets", "--cores-per-socket", "--sets", "--assoc",
        "--line-size", "--address-width", "--trace",
    ],
}


def help_options(capsys, command):
    """Exit code and option strings of `numacache [command] --help`."""
    with pytest.raises(SystemExit) as exc:
        main(([command] if command else []) + ["--help"])
    text = capsys.readouterr().out
    return exc.value.code, set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", text))


@pytest.mark.parametrize("command", list(HELP_OPTIONS), ids=str)
def test_help_lists_pinned_options(capsys, command):
    code, options = help_options(capsys, command)
    assert code == 0
    assert options == set(HELP_OPTIONS[command])


@pytest.mark.parametrize("argv", [["run", "--trace", "t.txt"], ["compare"],
                                  ["gen", "--gen-kind", "private"],
                                  ["validate-trace", "--trace", "-"]], ids=lambda a: a[0])
def test_one_command_parser_parses_as_the_full_parser(argv):
    args = cli.build_parser({}, argv[0]).parse_args(argv)
    assert args == cli.build_parser().parse_args(argv)


TOPOLOGY = [("--sockets", "4"), ("--cores-per-socket", "2"), ("--sets", "8"),
            ("--assoc", "8"), ("--line-size", "32"), ("--address-width", "24")]
GENERATOR = [("--gen-kind", "producer-consumer"), ("--working-set", "5"),
             ("--iterations", "3"), ("--pairs", "0:1,2:3"),
             ("--home-socket", "1"), ("--seed", "9")]
# four distinct latencies, so a flag that sets the wrong cost moves the
# total cost
SIM = [("--t-local", "3"), ("--t-remote", "5"), ("--window", "16"),
       ("--high-water", "0.4"), ("--low-water", "0.2"),
       ("--initial-bias", "off"), ("--remote-miss-def", "c2c-only"),
       ("--lat-llc", "20"), ("--lat-c2c", "100"), ("--lat-ldram", "180"),
       ("--lat-rdram", "400"), ("--validate", None)]
FILE = [("--trace", "t.txt")]

# name -> (command, options, sha256 of the output written to --out)
CASES = {
    "run-file": (
        "run", [("--policy", "adaptive")] + TOPOLOGY + FILE + SIM,
        "8d60cf8143a73e89b2727438aa8fd5ea8597b12848a176f868bc03714fe8b1f8",
    ),
    "run-gen": (
        "run", [("--policy", "biased")] + TOPOLOGY + GENERATOR + SIM
        + [("--report", "table")],
        "7dde7bf943cdf6429ea5cc980ed16ce222dcf20f8cbe35882291fda4f2bac098",
    ),
    "compare-file": (
        "compare", [("--policies", "lru,adaptive")] + TOPOLOGY + FILE + SIM
        + [("--report", "table")],
        "5b37f6f161ebff1a9ff48af3b4a7722d79ce26706f3748e73fb329090dbcfdc3",
    ),
    "compare-gen": (
        "compare", [("--policies", "lru,adaptive")] + TOPOLOGY + GENERATOR + SIM,
        "c6a92aaa79bef12d8b71542d5a3e30facea44e8298ee22bc2040d58f4c263b44",
    ),
    "gen": (
        "gen", TOPOLOGY + GENERATOR,
        "383c1375f54cdaa269ca197942aa8de1012f854cd6b405e311df00c95faab121",
    ),
    # stdout is "ok: 720 records"; the config file alone gives the
    # required --trace
    "validate-trace": (
        "validate-trace", TOPOLOGY + FILE,
        "fc5085786d52c03111f5d5e7282ec16ec142f9acfc7ac4211695cbb427f9fbf7",
    ),
}

TOPOLOGY_ECHO = {"sockets": 4, "cores_per_socket": 2, "sets": 8, "assoc": 8,
                 "line_size": 32, "address_width": 24}
SIM_ECHO = {
    "t_local": 3,
    "t_remote": 5,
    "adaptive": {"window": 16, "high_water": 0.4, "low_water": 0.2,
                 "initial_bias": False, "remote_miss_def": "c2c-only"},
    "latency": {"llc_hit": 20, "remote_c2c": 100, "local_dram": 180,
                "remote_dram": 400},
}
ECHOES = {
    "run-file": {
        "topology": TOPOLOGY_ECHO,
        "policies": ["adaptive"],
        **SIM_ECHO,
        "trace_source": {"file": "t.txt"},
        "validate": True,
    },
    "compare-gen": {
        "topology": TOPOLOGY_ECHO,
        "policies": ["lru", "adaptive"],
        **SIM_ECHO,
        "trace_source": {"generator": {
            "kind": "producer-consumer", "working_set_lines": 5,
            "iterations": 3, "pairs": [[0, 1], [2, 3]], "home_socket": 1,
            "seed": 9,
        }},
        "validate": True,
    },
}


def write_trace(path):
    """720 accesses on 4 sockets x 2 cores, lines of 32 bytes homed by the
    top 2 of 24 address bits: each line written by one socket and read by
    the next, which also streams private lines, so remote-shared lines
    compete with private ones for 8 ways in 8 sets."""
    lines = []

    def access(socket, core, op, line):
        lines.append(f"{socket} {core} {op} 0x{line % 4 << 22 | line << 5:x}\n")

    for r in range(5):
        for line in range(48):
            producer = line % 4
            consumer = (producer + 1) % 4
            access(producer, r % 2, "W", line)
            access(consumer, line % 2, "R", line)
            access(consumer, 0, "R", 64 + consumer * 96 + (r * 48 + line) * 5 % 96)
    path.write_text("".join(lines))


def as_config(options):
    """key=value lines for `options`, half of the keys spelt with `_`."""
    lines = []
    for i, (flag, value) in enumerate(options):
        key = flag[2:].replace("-", "_") if i % 2 else flag[2:]
        lines.append(f"{key}={'on' if value is None else value}\n")
    return "".join(lines)


def as_flags(options):
    argv = []
    for flag, value in options:
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.mark.parametrize("name", list(CASES))
def test_flags_and_config_file_write_pinned_bytes(capsys, tmp_path,
                                                  monkeypatch, name):
    command, options, digest = CASES[name]
    # relative paths, so the echoed trace path and the bytes are fixed
    monkeypatch.chdir(tmp_path)
    write_trace(tmp_path / "t.txt")

    # a command without `--out` writes to stdout
    to_file = "--out" in HELP_OPTIONS[command]

    def with_out(out):
        return options + ([("--out", out)] if to_file else [])

    def output(argv, out):
        """The bytes `numacache *argv` writes, read from `out` if it has
        `--out`, else from stdout."""
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        if not to_file:
            return stdout.encode()
        assert stdout == ""
        return (tmp_path / out).read_bytes()

    (tmp_path / "run.cfg").write_text(as_config(with_out("config.out")))
    flags_out = output([command] + as_flags(with_out("flags.out")), "flags.out")
    assert output(["--config", "run.cfg", command], "config.out") == flags_out
    assert hashlib.sha256(flags_out).hexdigest() == digest
    if name in ECHOES:
        assert json.loads(flags_out)["config"] == ECHOES[name]


def test_cases_cover_every_option():
    covered = {command: {"-h", "--help"} | {"--out"} & set(HELP_OPTIONS[command])
               for command, _, _ in CASES.values()}
    for command, options, _ in CASES.values():
        covered[command] |= {flag for flag, _ in options}
    for command, options in covered.items():
        assert options == set(HELP_OPTIONS[command]), command


# one value of the wrong kind for each kind of option -> the last stderr
# line of `run` given it as a flag (exit 2) and as a config-file line (exit 1)
WRONG_KIND = {
    ("--window", "2.5"): (
        "numacache run: error: argument --window: expected an integer, got '2.5'",
        "config error: config line 1: expected an integer, got '2.5'"),
    ("--high-water", "1e3"): (
        "numacache run: error: argument --high-water: expected a decimal number, got '1e3'",
        "config error: config line 1: expected a decimal number, got '1e3'"),
    ("--initial-bias", "maybe"): (
        "numacache run: error: argument --initial-bias: expected a boolean, got 'maybe'",
        "config error: config line 1: expected a boolean, got 'maybe'"),
    ("--policy", "bogus"): (
        "numacache run: error: argument --policy: invalid choice: 'bogus' "
        "(choose from 'adaptive', 'biased', 'lru')",
        "config error: config line 1: config key 'policy' must be one of "
        "adaptive, biased, lru, got 'bogus'"),
    ("--gen-kind", "bogus"): (
        "numacache run: error: argument --gen-kind: invalid choice: 'bogus' "
        "(choose from 'migratory', 'private', 'producer-consumer', 'shared-readonly')",
        "config error: config line 1: config key 'gen-kind' must be one of "
        "migratory, private, producer-consumer, shared-readonly, got 'bogus'"),
    ("--pairs", "0"): (
        "numacache run: error: argument --pairs: expected socket pairs like 0:1, got '0'",
        "config error: config line 1: expected socket pairs like 0:1, got '0'"),
}


def run_with(tmp_path, monkeypatch, flag, value, as_file):
    """The exit code of `run` given `flag` `value`, as a flag or as a
    config-file line."""
    monkeypatch.chdir(tmp_path)
    source = [] if flag == "--gen-kind" else ["--gen-kind", "migratory"]
    if as_file:
        (tmp_path / "run.cfg").write_text(f"{flag[2:]}={value}\n")
        argv = ["--config", "run.cfg", "run"] + source
    else:
        argv = ["run"] + source + [flag, value]
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage error
        return exc.code


@pytest.mark.parametrize("as_file", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("flag, value", list(WRONG_KIND), ids=" ".join)
def test_wrong_kind_exits_with_pinned_error(capsys, tmp_path, monkeypatch,
                                            flag, value, as_file):
    code = run_with(tmp_path, monkeypatch, flag, value, as_file)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (code, captured.err.splitlines()[-1]) == (
        (1, WRONG_KIND[flag, value][1]) if as_file else (2, WRONG_KIND[flag, value][0]))


@pytest.mark.parametrize("as_file", [False, True], ids=["flag", "config"])
def test_integer_longer_than_int_converts_exits_with_pinned_error(
        capsys, tmp_path, monkeypatch, as_file):
    ones = "1" * 5000  # past int()'s default limit of 4300 digits
    code = run_with(tmp_path, monkeypatch, "--window", ones, as_file)
    captured = capsys.readouterr()
    message = f"expected an integer of at most 4300 digits, got '{ones}'"
    assert captured.out == ""
    assert (code, captured.err.splitlines()[-1]) == (
        (1, f"config error: config line 1: {message}") if as_file
        else (2, f"numacache run: error: argument --window: {message}"))


def test_line_that_is_not_key_value_exits_with_pinned_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("sockets=2\njunk\n")
    code = main(["--config", "run.cfg", "run", "--gen-kind", "migratory"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", "config error: config line 2: 'junk' is not key=value\n")
