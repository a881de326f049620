import errno
import importlib
import io
import itertools
import json
import os
import random
import resource
import signal
import subprocess
import sys
import tracemalloc
import types
from contextlib import ExitStack

import pytest

import numacache
from numacache import cli, coherence, workload
from numacache.address_map import TopologyConfig
from numacache.cli import main
from numacache.coherence import CoherenceSystem
from numacache.engine import PolicyConfig, PolicyKind, compare, run
from numacache.workload import (
    _BLOCK,
    GeneratorKind,
    GeneratorSpec,
    generate,
    parse_blocks,
    record_blocks,
)

from helpers import parse_records
from reference_model import RefModel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env() -> dict:
    """The environment of a `numacache` subprocess: this source tree first
    on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(numacache.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestGen:
    def test_deterministic_bytes(self, capsys):
        args = ["gen", "--gen-kind", "private", "--sockets", "2", "--seed", "7"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert out1

    def test_requires_kind(self, capsys):
        code, _, err = run_cli(capsys, "gen")
        assert code != 0
        assert "gen-kind" in err

    def test_negative_home_socket_rejected(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--gen-kind", "migratory",
                                 "--home-socket", "-1")
        assert code == 1 and "config error" in err and out == ""

    def test_writes_file(self, capsys, tmp_path):
        out = tmp_path / "t.txt"
        code, stdout, _ = run_cli(capsys, "gen", "--gen-kind", "migratory",
                                  "--out", str(out))
        assert code == 0 and stdout == ""
        assert out.read_text()

    def test_trace_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--gen-kind", "private", "--trace", "/nonexistent"])
        assert exc.value.code == 2

    def test_closed_stdout_pipe_exits_quietly(self):
        # about 1 MB of trace, far more than a pipe buffers
        proc = subprocess.Popen(
            [sys.executable, "-m", "numacache.cli", "gen", "--gen-kind",
             "private", "--sockets", "2", "--working-set", "4096",
             "--iterations", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
        assert proc.stdout.readline() == b"0 0 R 0x0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_overflow_leaves_no_file(self, capsys, tmp_path):
        # 2 pairs x 300 lines need 600 of the 512 lines that 16 address
        # bits leave below the home bit: only the second pair overflows
        out = tmp_path / "t.txt"
        code, stdout, err = run_cli(
            capsys, "gen", "--gen-kind", "producer-consumer", "--pairs",
            "0:1,1:0", "--working-set", "300", "--address-width", "16",
            "--out", str(out))
        assert code == 1 and "config error" in err and stdout == ""
        assert not out.exists()


ONE_SOCKET = ("--sockets", "1", "--working-set", "6", "--iterations", "3")


@pytest.mark.parametrize("kind", ["private", "migratory", "shared-readonly"])
def test_one_socket_needs_no_pairs_for_the_other_kinds(capsys, kind):
    """On one socket the default pairs, 0:1, are out of range, but private
    and migratory read no pair and shared-readonly only the first pair's
    first socket: gen writes the bytes it writes with `--pairs 0:0`, and
    run reports the same stats."""
    source = ("--gen-kind", kind, *ONE_SOCKET)
    default, own = (run_cli(capsys, "gen", *source, *pairs)
                    for pairs in ((), ("--pairs", "0:0")))
    assert default == own and default[0] == 0 and default[1]
    default, own = (run_cli(capsys, "run", *source, *pairs)
                    for pairs in ((), ("--pairs", "0:0")))
    assert (default[0], default[2]) == (own[0], own[2]) == (0, "")
    assert json.loads(default[1])["stats"] == json.loads(own[1])["stats"]


def test_one_socket_refuses_the_default_pair_for_producer_consumer(capsys):
    # `run` is in test_error_precedence
    assert run_cli(capsys, "gen", "--gen-kind", "producer-consumer", *ONE_SOCKET) \
        == (1, "", "config error: socket pair (0, 1) out of range\n")


@pytest.mark.parametrize("argv", [["run", "--gen-kind", "migratory"],
                                  ["gen", "--gen-kind", "private"],
                                  ["validate-trace", "--trace", "t.txt"]])
def test_address_width_past_its_bound_is_a_config_error(capsys, monkeypatch,
                                                        tmp_path, argv):
    # 2**70 bits: `1 << address_width` would overflow, or exhaust memory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text("0 0 R 0x40\n")
    code, out, err = run_cli(capsys, *argv, "--address-width", str(2**70))
    assert (code, out, err) == (1, "", "config error: address_width must be <= 1024\n")


class TestLLCBound:
    """A topology of more than `coherence.MAX_SETS` sets over all sockets is
    a config error of the commands that simulate, found before any set is
    allocated; `gen` and `validate-trace` allocate none and accept it. Each
    command runs under a 256 MiB address-space limit, so a missing check
    fails fast."""

    @staticmethod
    def cli(tmp_path, *argv):
        def limit():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (256 * 2**20, hard))

        done = subprocess.run([sys.executable, "-m", "numacache.cli", *argv],
                              capture_output=True, env=cli_env(), timeout=60,
                              cwd=tmp_path, preexec_fn=limit)
        return done.returncode, done.stdout.decode(), done.stderr.decode()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("sockets, sets", [(2, 2**30), (2, 2**20), (64, 2**15)])
    def test_too_many_sets_is_a_config_error(self, tmp_path, command, sockets, sets):
        assert sockets * sets > coherence.MAX_SETS
        err = ("config error: num_sockets * llc_sets must be <= 1048576, "
               f"got {sockets * sets}\n")
        assert self.cli(tmp_path, command, "--gen-kind", "migratory",
                        "--sockets", str(sockets), "--sets", str(sets),
                        "--address-width", "64") == (1, "", err)

    def test_gen_and_validate_trace_accept_it(self, tmp_path):
        topo = ["--sets", str(2**30), "--address-width", "64"]
        code, out, err = self.cli(tmp_path, "gen", "--gen-kind", "migratory",
                                  "--iterations", "2", *topo)
        assert (code, err) == (0, "") and len(out.splitlines()) == 64
        (tmp_path / "t.txt").write_text(out)
        assert self.cli(tmp_path, "validate-trace", "--trace", "t.txt", *topo) \
            == (0, "ok: 64 records\n", "")


@pytest.mark.parametrize("command", ["run", "compare", "gen"])
@pytest.mark.parametrize("form", ["flag", "config file"])
def test_empty_out_is_an_io_error(capsys, tmp_path, command, form):
    # an empty path is opened as one, and fails; it is not stdout
    argv = [command, "--gen-kind", "migratory"]
    if form == "flag":
        argv += ["--out", ""]
    else:
        (tmp_path / "sim.cfg").write_text("out=\n")
        argv += ["--config", str(tmp_path / "sim.cfg")]
    assert run_cli(capsys, *argv) == (
        1, "", "io error: [Errno 2] No such file or directory: ''\n")


def test_out_may_name_the_trace(capsys, tmp_path):
    # the check that `--out` opens, before the run, truncates nothing
    trace = tmp_path / "t.txt"
    trace.write_text("0 0 R 0x40\n1 0 W 0x80\n")
    assert run_cli(capsys, "run", "--trace", str(trace), "--out", str(trace))[0] == 0
    assert json.loads(trace.read_text())["stats"]["accesses"] == 2


def test_a_fifo_out_gets_the_whole_report(tmp_path):
    # a FIFO is not opened before the run: its reader would see the end.
    # Both ends are subprocesses, so a command that never opens it fails
    # the test at a timeout instead of hanging it
    fifo = tmp_path / "r.fifo"
    os.mkfifo(fifo)
    reader = subprocess.Popen([sys.executable, "-c", "import shutil, sys; "
                               "shutil.copyfileobj(open(sys.argv[1]), sys.stdout)",
                               str(fifo)], stdout=subprocess.PIPE)
    try:
        done = subprocess.run([sys.executable, "-m", "numacache.cli", "run",
                               "--gen-kind", "migratory", "--out", str(fifo)],
                              env=cli_env(), timeout=60)
        report = reader.communicate(timeout=60)[0]
    finally:
        reader.kill()
        reader.wait()
    assert done.returncode == 0
    assert json.loads(report)["stats"]["accesses"] > 0


BAD_WATERMARKS = ("--low-water", "0.6", "--high-water", "0.2")
WATERMARK_ERROR = "config error: need 0 <= low_water <= high_water\n"


@pytest.mark.parametrize("argv, err", [
    (("run", "--trace", "/nonexistent", *BAD_WATERMARKS),
     "io error: [Errno 2] No such file or directory: '/nonexistent'\n"),
    (("run", "--gen-kind", "producer-consumer", "--sockets", "1", *BAD_WATERMARKS),
     "config error: socket pair (0, 1) out of range\n"),
    (("run", "--gen-kind", "migratory", *BAD_WATERMARKS, "--lat-llc", "999"),
     WATERMARK_ERROR),
    (("run", "--gen-kind", "migratory", "--window", "0", "--t-local", "99"),
     "config error: window_size must be >= 1\n"),
    (("compare", "--policies", "lru,fifo", "--gen-kind", "migratory", *BAD_WATERMARKS),
     "config error: unknown policy 'fifo'\n"),
    (("compare", "--policies", "", "--gen-kind", "migratory", *BAD_WATERMARKS),
     WATERMARK_ERROR),
    (("run", "--gen-kind", "migratory", *BAD_WATERMARKS, "--out", "/nonexistent/r.json"),
     WATERMARK_ERROR),
    (("run", "--trace", "bad-last.txt", "--out", "/nonexistent/r.json"),
     "io error: [Errno 2] No such file or directory: '/nonexistent/r.json'\n"),
    (("compare", "--trace", "bad-last.txt", "--t-local", "99"),
     "config error: thresholds must be in [1, 4]\n"),
    (("compare", "--policies", "", "--trace", "bad-last.txt"),
     "config error: compare needs at least one policy\n"),
], ids=["io", "generator", "latency", "thresholds", "policy-name", "no-policy",
        "watermarks-then-out", "out-then-records", "compare-thresholds-then-records",
        "no-policy-then-records"])
def test_error_precedence(capsys, monkeypatch, tmp_path, argv, err):
    """Of two errors, the one a command reports: an unknown policy name
    comes first, then the trace source's errors, then the policy record's
    watermarks, then the latencies, then a `--out` that cannot be opened,
    then compare's empty policy list, then the thresholds (which compare
    checks for every policy before it reads the trace), and the trace's
    records last."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad-last.txt").write_text("0 0 R 0x40\n1 0 W 0x80\n0 0 Q 0x40\n")
    assert run_cli(capsys, *argv) == (1, "", err)


class TestClosedStandardStream:
    """A command whose stdin or stdout was closed before it started (`<&-`,
    `>&-`) and that needs it ends in an io error, exit 1."""

    @staticmethod
    def cli(fd: int, *argv):
        """Exit code, stdout and stderr of `numacache *argv` run with
        file descriptor `fd` closed."""
        done = subprocess.run([sys.executable, "-m", "numacache.cli", *argv],
                              capture_output=True, env=cli_env(), timeout=60,
                              preexec_fn=lambda: os.close(fd))
        return done.returncode, done.stdout, done.stderr.decode()

    @pytest.mark.parametrize("command", ["run", "validate-trace"])
    def test_closed_stdin(self, command):
        assert self.cli(0, command, "--trace", "-") == (1, b"", "io error: stdin is closed\n")

    @pytest.mark.parametrize("argv", [["run", "--gen-kind", "migratory"],
                                      ["gen", "--gen-kind", "private"],
                                      ["validate-trace", "--trace", "t.txt"]])
    def test_closed_stdout(self, tmp_path, argv):
        (tmp_path / "t.txt").write_text("0 0 R 0x40\n")
        argv = [str(tmp_path / arg) if arg == "t.txt" else arg for arg in argv]
        code, _, err = self.cli(1, *argv)
        assert (code, err) == (1, "io error: stdout is closed\n")

    def test_a_report_to_a_file_needs_no_stdout(self, tmp_path):
        out = tmp_path / "r.json"
        code, _, err = self.cli(1, "run", "--gen-kind", "migratory", "--out", str(out))
        assert (code, err) == (0, "")
        assert json.loads(out.read_text())["stats"]["accesses"] > 0


class TestRun:
    def test_empty_trace_ok(self, capsys, tmp_path):
        trace = tmp_path / "t.txt"
        trace.write_text("")
        code, out, _ = run_cli(capsys, "run", "--policy", "lru",
                               "--trace", str(trace))
        assert code == 0
        report = json.loads(out)
        assert report["stats"]["accesses"] == 0

    def test_generated_trace_runs(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--policy", "biased",
                               "--gen-kind", "producer-consumer")
        assert code == 0
        report = json.loads(out)
        assert report["stats"]["accesses"] > 0
        assert report["config"]["policies"] == ["biased"]

    def test_both_trace_sources_rejected(self, capsys, tmp_path):
        trace = tmp_path / "t.txt"
        trace.write_text("")
        code, _, err = run_cli(capsys, "run", "--trace", str(trace),
                               "--gen-kind", "private")
        assert code != 0 and "trace source" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--trace", "/nonexistent")
        assert code != 0 and err

    def test_malformed_trace_reports_line(self, capsys, tmp_path):
        trace = tmp_path / "t.txt"
        for line in ("0 0 Q 0x40", "\u0661 0 R 0x40", "+0 0 R 0x40",
                     "0 0 R 0x0_40"):
            trace.write_text(line + "\n", encoding="utf-8")
            code, _, err = run_cli(capsys, "run", "--trace", str(trace))
            assert code == 1 and "line 1" in err, line

    def test_late_malformed_record_writes_no_report(self, capsys, tmp_path):
        trace = tmp_path / "t.txt"
        good = "".join(f"{i % 2} 0 R 0x{i * 64:x}\n" for i in range(3000))
        trace.write_text(good + "0 0 R 0x40 extra\n" + good)
        out = tmp_path / "r.json"
        for report in ("json", "table"):
            code, stdout, err = run_cli(capsys, "run", "--trace", str(trace),
                                        "--report", report, "--out", str(out))
            assert code == 1 and "trace error: line 3001:" in err
            assert stdout == "" and not out.exists()

    def test_bad_threshold_and_late_malformed_record(self, capsys, tmp_path):
        # streamed records reach the parser only after the thresholds are
        # checked, so the threshold error comes first, and no report
        trace = tmp_path / "t.txt"
        trace.write_text("0 0 R 0x40\n" * 100 + "0 0 Q 0x40\n")
        code, out, err = run_cli(capsys, "run", "--trace", str(trace),
                                 "--policy", "biased", "--t-local", "99")
        assert (code, out, err) == (1, "", "config error: thresholds must be in [1, 4]\n")

    def test_memory_constant_in_trace_length(self, capsys, tmp_path):
        """Records stream from the trace file into the simulation, so the
        peak of traced allocations does not grow with the trace length."""
        def peak_mib(records):
            trace = tmp_path / f"t{records}.txt"
            # 1024 distinct lines, so the directory stays bounded too
            trace.write_text("".join(
                f"{i % 2} 0 {'RW'[i % 3 == 0]} 0x{i % 1024 * 64:x}\n"
                for i in range(records)))
            tracemalloc.start()
            try:
                code = main(["run", "--trace", str(trace),
                             "--out", str(tmp_path / "r.json")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak / 2**20

        small, large = peak_mib(4000), peak_mib(16000)
        assert large <= small + 0.5, (small, large)

    def test_negative_pair_rejected(self, capsys):
        code, _, err = run_cli(capsys, "run", "--gen-kind", "producer-consumer",
                               "--pairs=-1:0")
        assert code == 1 and "config error" in err

    def test_negative_latency_rejected(self, capsys):
        code, _, err = run_cli(capsys, "run", "--gen-kind", "private",
                               "--lat-llc", "-5")
        assert code == 1 and "config error" in err

    def test_table_report(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--gen-kind", "private",
                               "--report", "table")
        assert code == 0
        assert "misses" in out and "total cost" in out

    def test_threshold_echo(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--gen-kind", "private",
                               "--assoc", "16")
        config = json.loads(out)["config"]
        assert config["t_local"] == 4
        assert config["t_remote"] == 8

    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bogus"])
        assert exc.value.code != 0


class TestCompare:
    def test_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--policies", "lru,biased",
                               "--gen-kind", "producer-consumer")
        assert code == 0
        report = json.loads(out)
        names = [p["policy"] for p in report["policies"]]
        assert names == ["lru", "biased"]
        for entry in report["policies"]:
            assert "misses_by_source" in entry["stats"]
        assert report["deltas"][0]["misses"] == 0

    def test_unknown_policy(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--policies", "lru,fifo",
                               "--gen-kind", "private")
        assert code != 0 and "fifo" in err


def local_trace(records, lines=128, seed=3):
    """Random accesses of 2 sockets to `lines` lines of both homes."""
    rng = random.Random(seed)
    return "".join(
        f"{rng.randrange(2)} 0 {'RW'[rng.random() < 0.3]} "
        f"0x{rng.randrange(lines) * 64 | rng.randrange(2) << 31:x}\n"
        for _ in range(records))


# records the CLI takes in process before it forks a reader
IN_PROCESS = workload._FORK_AFTER * _BLOCK


class TestReader:
    """Past its first blocks, the CLI parses a trace in a forked reader
    process while it simulates."""

    TOPO = ["--sockets", "2", "--sets", "16", "--assoc", "4", "--window", "64"]

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the reader processes forked, once each is reaped;
        two CPUs are usable, whatever the host has."""
        pids, fork = [], os.fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)

        def counted():
            pid = fork()
            pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        yield pids
        # main reaps every reader it forked, on every exit path
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command, policies", [
        ("run", ["--policy", "adaptive"]),
        ("compare", ["--policies", "lru,biased,adaptive"]),
    ])
    def test_file_stdin_and_in_process_agree(self, capsys, monkeypatch, tmp_path,
                                              forks, command, policies):
        trace = tmp_path / "t.txt"
        trace.write_text(local_trace(IN_PROCESS + 1600))  # 3 blocks forked
        argv = [command, *self.TOPO, *policies, "--trace"]
        code, from_file, _ = run_cli(capsys, *argv, str(trace))
        assert code == 0 and len(forks) == 1
        with open(trace, encoding="utf-8") as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            code, from_stdin, _ = run_cli(capsys, *argv, "-")
        assert code == 0 and len(forks) == 2
        assert from_file.replace(json.dumps(str(trace)), '"-"') == from_stdin
        # the same stats as a simulation that parses in process
        topo = TopologyConfig(num_sockets=2, llc_sets=16, llc_assoc=4)
        report = json.loads(from_file)
        with open(trace, encoding="utf-8") as fh:
            if command == "run":
                stats = run(parse_records(fh, topo), topo,
                            PolicyConfig(PolicyKind.BIASED_ADAPTIVE, window_size=64))
                assert report["stats"] == stats.to_dict()
            else:
                kinds = [PolicyKind(k) for k in report["config"]["policies"]]
                result = compare(parse_records(fh, topo), topo,
                                 [PolicyConfig(k, window_size=64) for k in kinds])
                del report["config"]
                assert report == result

    def test_only_a_trace_past_the_first_blocks_forks(self, capsys, tmp_path, forks):
        trace = tmp_path / "t.txt"
        for records in (0, 1, IN_PROCESS - 1, IN_PROCESS):
            trace.write_text(local_trace(records))
            assert run_cli(capsys, "run", "--trace", str(trace))[0] == 0
            assert len(forks) == (records >= IN_PROCESS)

    def test_a_generated_source_is_read_past_the_fork(self, forks):
        topo = TopologyConfig(num_sockets=4)
        spec = GeneratorSpec(GeneratorKind.PRODUCER_CONSUMER, working_set_lines=64,
                             iterations=20,
                             sharing_socket_pairs=((0, 1), (1, 2), (2, 3), (3, 0)))
        expected = list(generate(spec, topo))
        assert len(expected) > IN_PROCESS
        with ExitStack() as files:
            blocks = record_blocks(generate(spec, topo), topo)
            records = itertools.chain.from_iterable(
                itertools.starmap(zip, workload.read_ahead(blocks, files)))
            assert list(records) == expected
        assert len(forks) == 1

    @pytest.mark.parametrize("host", ["no fork", "one CPU", "one CPU, no affinity"])
    def test_every_block_is_read_in_process_without_a_second_cpu(
            self, capsys, monkeypatch, tmp_path, forks, host):
        trace = tmp_path / "t.txt"
        trace.write_text(local_trace(IN_PROCESS + 1600))
        argv = ["run", *self.TOPO, "--policy", "adaptive", "--trace", str(trace)]
        forked = run_cli(capsys, *argv)
        assert len(forks) == 1
        if host == "no fork":
            monkeypatch.delattr(os, "fork")
        elif host == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert run_cli(capsys, *argv) == forked
        assert len(forks) == 1

    def test_one_cpu_is_asked_for_once_per_read(self, capsys, monkeypatch, tmp_path,
                                                forks):
        trace = tmp_path / "t.txt"
        trace.write_text(local_trace(IN_PROCESS + 1600))
        argv = ["run", *self.TOPO, "--policy", "adaptive", "--trace", str(trace)]
        forked, asked = run_cli(capsys, *argv), []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: asked.append(pid) or {0})
        assert run_cli(capsys, *argv) == forked
        assert len(asked) == 1 and len(forks) == 1

    def bad_last_line(self, monkeypatch, trace):
        with open(trace, "a") as fh:
            fh.write("0 0 Q 0x40\n")

    def invariant_breaks_past_the_fork(self, monkeypatch, trace):
        calls = itertools.count()
        monkeypatch.setattr(
            CoherenceSystem, "check_global_invariants",
            lambda self: ["broken"] if next(calls) == IN_PROCESS + 500 else [])

    def interrupted_past_the_fork(self, monkeypatch, trace):
        simulate = CoherenceSystem.simulate

        def interrupted(self, accesses, *state):
            # ctrl-c at the record 500 records past the fork
            for seq, access in enumerate(accesses):
                if seq == IN_PROCESS + 500:
                    raise KeyboardInterrupt
                simulate(self, (access,), *state)

        monkeypatch.setattr(CoherenceSystem, "simulate", interrupted)

    def broken_stdout(self, monkeypatch, trace):
        class Closed:
            def writelines(self, chunks):
                raise BrokenPipeError

            def fileno(self):
                raise io.UnsupportedOperation

        monkeypatch.setattr("sys.stdout", Closed())

    # exit path -> (argv, the test's set-up, exit code)
    EXITS = {
        "success": (["run"], None, 0),
        "trace error": (["run"], bad_last_line, 1),
        "bad threshold": (["compare", "--t-local", "99"], None, 1),
        "invariant error": (["run", "--validate"], invariant_breaks_past_the_fork, 3),
        "broken pipe": (["run"], broken_stdout, 0),
        "ctrl-c": (["run"], interrupted_past_the_fork, KeyboardInterrupt),
    }

    @pytest.mark.parametrize("path", list(EXITS))
    def test_reader_is_reaped_on_every_exit_path(self, capsys, monkeypatch, tmp_path,
                                                 forks, path):
        (command, *flags), set_up, expected = self.EXITS[path]
        trace = tmp_path / "t.txt"
        trace.write_text(local_trace(IN_PROCESS + 1600))
        if set_up is not None:
            set_up(self, monkeypatch, trace)
        argv = [command, *self.TOPO, *flags, "--trace", str(trace)]
        if expected is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == expected
        # bad thresholds fail before the trace is read, so no reader starts
        assert len(forks) == (path != "bad threshold")

    def fail_in_the_reader(self, monkeypatch, failure):
        """Make the reader process fail at the block of record IN_PROCESS + 500."""
        main_pid = os.getpid()

        def fails_in_the_reader(fh, topo):
            for seq, block in enumerate(parse_blocks(fh, topo)):
                if seq == (IN_PROCESS + 500) // _BLOCK and os.getpid() != main_pid:
                    if failure == "killed":
                        os.kill(os.getpid(), signal.SIGKILL)
                    if failure == "bug":
                        raise ZeroDivisionError("a fault of the parser")
                    raise OSError(errno.EIO, os.strerror(errno.EIO))
                yield block

        monkeypatch.setattr(cli, "parse_blocks", fails_in_the_reader)

    @pytest.mark.parametrize("failure, message", [
        ("killed", "the trace reader process ended before the trace did"),
        ("read error", "[Errno 5] Input/output error"),
    ])
    def test_reader_failure_is_an_io_error(self, capsys, monkeypatch, tmp_path,
                                           forks, failure, message):
        self.fail_in_the_reader(monkeypatch, failure)
        trace, out = tmp_path / "t.txt", tmp_path / "r.json"
        trace.write_text(local_trace(IN_PROCESS + 1600))
        code, stdout, err = run_cli(capsys, "run", "--trace", str(trace),
                                    "--out", str(out))
        assert (code, err) == (1, f"io error: {message}\n")
        assert stdout == "" and not out.exists()

    def test_a_fault_in_the_reader_shows_its_traceback(self, capfd, monkeypatch,
                                                       tmp_path, forks):
        self.fail_in_the_reader(monkeypatch, "bug")
        trace = tmp_path / "t.txt"
        trace.write_text(local_trace(IN_PROCESS + 1600))
        assert main(["run", "--trace", str(trace)]) == 1
        stdout, err = capfd.readouterr()
        assert stdout == ""
        # the reader's traceback names the fault; the command reports
        # that the trace ended early
        assert err.startswith("Traceback (most recent call last):\n")
        assert "ZeroDivisionError: a fault of the parser\n" in err
        assert err.endswith(
            "\nio error: the trace reader process ended before the trace did\n")

    def test_a_reader_whose_main_process_is_gone_ends_quietly(
            self, capfd, monkeypatch, tmp_path, forks):
        main_pid, send = os.getpid(), workload._send

        def pipe_breaks_in_the_reader(out, message):
            if os.getpid() != main_pid:
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
            send(out, message)

        monkeypatch.setattr(workload, "_send", pipe_breaks_in_the_reader)
        trace = tmp_path / "t.txt"
        trace.write_text(local_trace(IN_PROCESS + 1600))
        assert main(["run", "--trace", str(trace)]) == 1
        assert capfd.readouterr() == (
            "", "io error: the trace reader process ended before the trace did\n")

    def test_python_calls_per_record(self, tmp_path, forks):
        """The reader leaves the simulation's layer boundaries as the only
        Python-level calls per record in this process: none for parsing."""
        def calls(text):
            trace = tmp_path / "t.txt"
            trace.write_text(text)
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event == "call"

            sys.setprofile(profile)
            try:
                code = main(["run", *self.TOPO, "--policy", "adaptive",
                             "--trace", str(trace), "--out", str(tmp_path / "r.json")])
            finally:
                sys.setprofile(None)
            assert code == 0
            return count

        # the records past the fork, which a longer trace adds (2.12 calls
        # per record when this process parses them too)
        short, long = (calls(local_trace(IN_PROCESS + n)) for n in (1000, 7000))
        assert (long - short) / 6000 <= 1.31  # 1.18 measured
        assert len(forks) == 2


class TestVictimSelection:
    """A full set evicts its LRU line without calling `select_victim`
    unless the bias is on: only then can its answer differ."""

    TOPO = ["--sockets", "2", "--sets", "16", "--assoc", "4", "--window", "64"]

    class Reached(Exception):
        """`select_victim` was called."""

    @pytest.mark.parametrize("flags, model", [
        (["--policy", "lru"], dict(policy="lru")),
        # the bias starts off and no window's fraction exceeds 1
        (["--policy", "adaptive", "--initial-bias", "off", "--high-water", "1",
          "--low-water", "0"],
         dict(policy="adaptive", initial_bias=False, high=1.0, low=0.0)),
    ])
    def test_bias_off_selects_no_victim(self, capsys, monkeypatch, tmp_path,
                                        flags, model):
        text = local_trace(IN_PROCESS + 1600)
        trace = tmp_path / "t.txt"
        trace.write_text(text)

        def reached(*args):
            raise self.Reached

        monkeypatch.setattr(coherence, "select_victim", reached)
        code, out, _ = run_cli(capsys, "run", *self.TOPO, *flags, "--trace", str(trace))
        assert code == 0
        stats = json.loads(out)["stats"]
        # many evictions, and the reference model's stats
        assert stats["misses"] > 3000 and stats["writebacks"] > 1000
        assert stats["bias_events"] == stats["counter_resets"] == 0
        accesses = [(int(socket), op, int(addr, 16), seq) for seq, (socket, _, op, addr)
                    in enumerate(line.split() for line in text.splitlines())]
        assert stats == RefModel(2, 16, 4, 64, 32, window=64, **model).run(accesses)

        # with the bias on, the same trace reaches it
        with pytest.raises(self.Reached):
            main(["run", *self.TOPO, "--policy", "biased", "--trace", str(trace)])


class TestUndecodableTrace:
    """A byte that is not UTF-8 is a non-ASCII character of its line, from
    a trace file or from stdin, under `run` and `validate-trace`."""

    DATA = b"0 0 R 0x40\n0 0 R 0x\xff40\n"

    @pytest.mark.parametrize("command", ["run", "validate-trace"])
    def test_file(self, capsys, tmp_path, command):
        trace = tmp_path / "t.txt"
        trace.write_bytes(self.DATA)
        code, out, err = run_cli(capsys, command, "--trace", str(trace))
        assert code == 1 and out == ""
        assert err.startswith("trace error: line 2: non-ASCII")

    @pytest.mark.parametrize("command", ["run", "validate-trace"])
    def test_stdin(self, capsys, monkeypatch, command):
        # a strict UTF-8 text layer over the bytes, as a UTF-8 locale gives
        stdin = io.TextIOWrapper(io.BytesIO(self.DATA), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, command, "--trace", "-")
        assert code == 1 and out == ""
        assert err.startswith("trace error: line 2: non-ASCII")
        assert not stdin.closed


class TestValidateTrace:
    def test_ok(self, capsys, tmp_path):
        trace = tmp_path / "t.txt"
        trace.write_text("# hdr\n0 0 R 0x40\n1 0 W 0x80\n")
        code, out, _ = run_cli(capsys, "validate-trace", "--trace", str(trace))
        assert code == 0 and "2 records" in out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 0 R 0x40\n1 0 W 0x80\n"))
        code, out, _ = run_cli(capsys, "validate-trace", "--trace", "-")
        assert code == 0 and "2 records" in out

    # (line number -> the line put in place of a canonical one, the
    # command's stdout, its stderr) of each case
    PINNED = {
        "canonical": ({}, "ok: 1300 records\n", ""),
        "odd-lines-in-block-2": (
            {601: "# a comment\n", 602: "\n", 603: "1\t0\tW\t0x80\n",
             604: "0 0 R 0xc0\r\n"}, "ok: 1298 records\n", ""),
        "error-at-512": ({512: "0 0 Q 0x40\n"}, "",
                         "trace error: line 512: operation must be R or W, got 'Q'\n"),
        "error-at-513": ({513: "2 0 R 0x40\n"}, "",
                         "trace error: line 513: socket 2 out of range\n"),
        "error-at-1025": ({1025: "0 0 R 0x4_0\n"}, "", "trace error: line 1025: "
                          "address must be 0x-prefixed hex, got '0x4_0'\n"),
    }

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("case", list(PINNED))
    def test_pinned_output(self, capsys, monkeypatch, tmp_path, case, source):
        # 1 300 lines: three parse blocks of the default topology's records
        changes, out, err = self.PINNED[case]
        rng = random.Random(5)
        lines = [f"{rng.randrange(2)} 0 {rng.choice('RW')} 0x{rng.randrange(1 << 32):x}\n"
                 for _ in range(1300)]
        for lineno, line in changes.items():
            lines[lineno - 1] = line
        data, trace = "".join(lines).encode(), tmp_path / "t.txt"
        trace.write_bytes(data)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        path = str(trace) if source == "file" else "-"
        assert run_cli(capsys, "validate-trace", "--trace", path) == (1 if err else 0, out, err)

    def test_bad_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.txt"
        trace.write_text("0 0 R zzz\n")
        code, _, err = run_cli(capsys, "validate-trace", "--trace", str(trace))
        assert code != 0 and err

    def test_trace_is_required(self, capsys, tmp_path):
        # without the flag or a config file's `trace` key; another key in
        # the file does not lift the requirement
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("sockets=2\n")
        for config in ([], ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(config + ["validate-trace"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "the following arguments are required: --trace" in err


class TestConfigFile:
    def test_defaults_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("assoc=16\nsets=8\n# comment\nwindow=64\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "run",
                               "--gen-kind", "private")
        assert code == 0
        config = json.loads(out)["config"]
        assert config["topology"]["assoc"] == 16
        assert config["topology"]["sets"] == 8
        assert config["adaptive"]["window"] == 64

    def test_equals_form_honoured(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("assoc=8\n")
        for argv in ([f"--config={cfg}", "run", "--gen-kind", "private"],
                     ["run", "--gen-kind", "private", f"--config={cfg}"]):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert json.loads(out)["config"]["topology"]["assoc"] == 8

    def test_abbreviated_flag_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("assoc=8\n")
        for argv in (["--conf", str(cfg)], [f"--conf={cfg}"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["run", "--gen-kind", "private"])
            assert exc.value.code != 0

    def test_missing_path_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--gen-kind", "private",
                               "--config")
        assert code == 1 and "config error" in err and "--config" in err

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("assoc=16\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "run",
                               "--gen-kind", "private", "--assoc", "8")
        assert json.loads(out)["config"]["topology"]["assoc"] == 8

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("bogus=1\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "run",
                               "--gen-kind", "private")
        assert code != 0 and "bogus" in err

    @pytest.mark.parametrize("line", ["report=xml", "remote-miss-def=bogus",
                                      "validate=maybe"])
    def test_invalid_value_is_config_error(self, capsys, tmp_path, line):
        trace = tmp_path / "t.txt"
        trace.write_text("")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "run", "--trace", str(trace),
                                 "--config", str(cfg))
        assert code == 1 and "config error" in err and out == ""

    def test_valid_values_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("report=table\nremote-miss-def=c2c-only\nvalidate=on\n")
        code, out, _ = run_cli(capsys, "run", "--gen-kind", "private",
                               "--config", str(cfg))
        assert code == 0 and out.startswith(" ") and "total cost" in out

    @pytest.mark.parametrize("where", ["before", "after", "mixed"])
    def test_repeated_config_is_config_error(self, capsys, tmp_path, where):
        first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("assoc=16\n")
        second.write_text("assoc=8\n")
        configs = ["--config", str(first), "--config", str(second)]
        command = ["run", "--gen-kind", "private"]
        argv = {"before": configs + command, "after": command + configs,
                "mixed": command + [f"--config={first}"] + configs[2:]}[where]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "config error" in err and "--config" in err

    def test_non_utf8_byte_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_bytes(b"assoc=8\nsets=\xff4\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "run",
                                 "--gen-kind", "private")
        assert code == 1 and out == ""
        assert err.startswith("config error: config line 2: ")

    @pytest.mark.parametrize("command, line", [
        ("gen", "trace=/nonexistent"),
        ("gen", "policy=adaptive"),
        ("validate-trace", "policy=adaptive"),
        ("validate-trace", "validate=on"),
        ("run", "policies=lru"),
        ("compare", "policy=adaptive"),
    ])
    def test_key_the_command_does_not_take_is_config_error(
            self, capsys, tmp_path, command, line):
        # as a flag, each of these is a usage error of the command
        trace = tmp_path / "t.txt"
        trace.write_text("0 0 R 0x40\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"sockets=2\n{line}\n")
        source = {"validate-trace": ["--trace", str(trace)]}.get(
            command, ["--gen-kind", "private"])
        code, out, err = run_cli(capsys, "--config", str(cfg), command, *source)
        flag = "--" + line.partition("=")[0]
        assert (code, out) == (1, "")
        assert err == f"config error: config line 2: {command} does not take {flag}\n"

    def test_input_files_untouched(self, capsys, tmp_path):
        trace = tmp_path / "t.txt"
        content = "0 0 R 0x40\n"
        trace.write_text(content)
        run_cli(capsys, "run", "--trace", str(trace))
        assert trace.read_text() == content


# each int() accepts these, but a flag or config value must be ASCII decimal
# digits with an optional leading `-`
LOOSE_INTEGERS = [("sets", "1_6"), ("sets", "+16"), ("sets", "\u0661\u0666"),
                  ("home-socket", "\u0660"), ("pairs", "\u0661:0"),
                  ("pairs", "0: 1")]


@pytest.mark.parametrize("key, value", LOOSE_INTEGERS)
class TestStrictIntegers:
    def test_flag_is_usage_error(self, capsys, key, value):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--gen-kind", "private", f"--{key}", value])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_config_value_is_config_error(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"{key}={value}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "--config", str(cfg), "gen",
                                 "--gen-kind", "private")
        assert code == 1 and out == ""
        assert err.startswith("config error: config line 1: ")


# each float() accepts these (or a float() result that is not finite), but
# a flag or config value must be ASCII digits with at most one `.` and an
# optional leading `-`, and finite
LOOSE_FLOATS = [("high-water", "inf"), ("high-water", "nan"),
                ("high-water", "1e400"),
                pytest.param("high-water", "9" * 400, id="high-water-400-nines"),
                ("high-water", "+.5"), ("low-water", "0_1"),
                ("low-water", "\u0660")]


@pytest.mark.parametrize("key, value", LOOSE_FLOATS)
class TestStrictFloats:
    def test_flag_is_usage_error(self, capsys, key, value):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gen-kind", "migratory", f"--{key}", value])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_config_value_is_config_error(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"{key}={value}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "--config", str(cfg), "run",
                                 "--gen-kind", "migratory")
        assert code == 1 and out == ""
        assert err.startswith("config error: config line 1: ")


@pytest.mark.parametrize("text", ["0.3", "0.1", "0.5", "1", "5.", ".25", "-0.5"])
def test_decimal_floats_parse(text):
    assert cli._parse_float(text) == float(text)


def test_float_flag_with_a_leading_space_is_usage_error(capsys):
    # a config value is stripped, a flag is not
    with pytest.raises(SystemExit) as exc:
        main(["run", "--gen-kind", "migratory", "--low-water", " 0.1"])
    assert exc.value.code == 2


def test_import_needs_no_dataclasses_or_inspect():
    # `dataclasses` imports `inspect`, `ast`, `dis` and `tokenize`, which
    # every command would pay for at start-up
    src = os.path.dirname(os.path.dirname(numacache.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import numacache.cli; "
            "print(numacache.cli.__file__); print(*sorted(sys.modules))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    path, modules = done.stdout.splitlines()
    assert path.startswith(src)
    assert not {"dataclasses", "inspect"} & set(modules.split())


# the functions that `perfbench/layers.py` wraps in timing spans when it
# traces a CLI run. A traced run fails when too much of its time falls
# outside every span, so a refactor that moves or renames one of these
# must re-point the benchmark in the same change
TRACED = ["engine.run", "cli._load_trace", "coherence.CoherenceSystem.__init__",
          "coherence.CoherenceSystem.simulate",
          "coherence.CoherenceSystem.check_global_invariants", "replacement.select_victim"]


@pytest.mark.parametrize("name", TRACED)
def test_benchmark_traced_names_are_plain_functions(name):
    module, *path = name.split(".")
    target = importlib.import_module(f"numacache.{module}")
    for attr in path:
        target = vars(target)[attr]
    assert isinstance(target, types.FunctionType)
    assert (target.__module__, target.__qualname__) == (f"numacache.{module}",
                                                        ".".join(path))
