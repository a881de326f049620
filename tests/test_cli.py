import io
import json

import pytest

from numacache.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bad_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.txt"
        trace.write_text("0 0 R zzz\n")
        code, _, err = run_cli(capsys, "validate-trace", "--trace", str(trace))
        assert code != 0 and err


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

    def test_input_files_untouched(self, capsys, tmp_path):
        trace = tmp_path / "t.txt"
        content = "0 0 R 0x40\n"
        trace.write_text(content)
        run_cli(capsys, "run", "--trace", str(trace))
        assert trace.read_text() == content
