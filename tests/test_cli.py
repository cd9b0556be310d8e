"""End-to-end command line tests driven through main(argv)."""

import csv
import json
import shutil
import subprocess

import pytest

from nclil.cli import main


def read_json(path):
    with open(path) as f:
        return json.load(f)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestProtocol:
    def test_ok_run_writes_standard_files(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["verify-scalarineq", "--count", "5", "--out", str(out)])
        assert rc == 0
        cfg = read_json(out / "resolved-config.json")
        assert cfg["command"] == "verify-scalarineq"
        assert cfg["count"] == 5
        summary = read_json(out / "summary.json")
        assert summary["ok"] is True
        assert summary["runtime_seconds"] > 0.0
        rows = read_csv(out / "trials.csv")
        assert len(rows) == summary["rows"]
        assert not (out / "reproducer.json").exists()

    def test_config_file_overrides_defaults(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"samples": 3, "seed": 9}))
        out = tmp_path / "o"
        rc = main(["verify-ce", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0
        cfg = read_json(out / "resolved-config.json")
        assert cfg["samples"] == 3
        assert cfg["seed"] == 9

    def test_flag_beats_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"samples": 3}))
        out = tmp_path / "o"
        rc = main(["verify-ce", "--config", str(cfg_file), "--samples", "2",
                   "--out", str(out)])
        assert rc == 0
        assert read_json(out / "resolved-config.json")["samples"] == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"sample": 3}))
        rc = main(["verify-ce", "--config", str(cfg_file),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_flag_exits_one(self, capsys):
        assert main(["verify-ce", "--no-such-flag"]) == 1
        assert main(["no-such-command"]) == 1
        capsys.readouterr()


class TestVerifyCommands:
    def test_expineq_row_count(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["verify-expineq", "--trials", "2", "--eps", "0.5",
                   "--lambda-points", "3", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "trials.csv")
        assert len(rows) == 2 * 1 * 3
        assert all(r["holds"] == "True" for r in rows)

    def test_doob_p_gate(self, tmp_path, capsys):
        rc = main(["verify-doob", "--p", "3", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "p >= 4" in capsys.readouterr().err

    def test_dualdoob_p_gate(self, tmp_path, capsys):
        rc = main(["verify-dualdoob", "--p", "2.5", "--out", str(tmp_path / "o")])
        assert rc == 1
        capsys.readouterr()

    def test_doob_small(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["verify-doob", "--trials-per-kind", "1", "--p", "4",
                   "--kinds", "diagonal", "--out", str(out)])
        assert rc == 0
        assert read_json(out / "summary.json")["summary"]["certified_violations"] == 0

    def test_chebyshev_small(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["verify-chebyshev", "--trials", "1", "--t-points", "4",
                   "--out", str(out)])
        assert rc == 0
        assert len(read_csv(out / "trials.csv")) == 4

    @pytest.mark.parametrize("flag", [["--trials", "0"], ["--workers", "-3"]])
    def test_expineq_bad_count_exits_one(self, tmp_path, capsys, flag):
        rc = main(["verify-expineq", *flag, "--lambda-points", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error:" in capsys.readouterr().err

    def test_bad_numeric_list(self, tmp_path, capsys):
        rc = main(["verify-expineq", "--eps", "0.1,zebra",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        capsys.readouterr()


class TestLilRun:
    def test_streaming_outputs(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["lil-run", "--horizon", "2000", "--paths", "64",
                   "--checkpoints", "10", "--seed", "3", "--out", str(out)])
        assert rc == 0
        summary = read_json(out / "summary.json")
        assert summary["engine"] == "streaming-ensemble"
        assert summary["bc"]["ok"] is True
        blocks = read_csv(out / "blocks.csv")
        assert len(blocks) == len(summary["blocks"])
        used = [b for b in blocks if b["used"] == "True"]
        # partial sums accumulate over used blocks only
        sums = [float(b["partial_sum"]) for b in used]
        assert sums == sorted(sums)
        assert all(b["partial_sum"] == "" for b in blocks if b["used"] == "False")
        cps = read_csv(out / "checkpoints.csv")
        assert cps
        steps = [int(r["m"]) for r in cps]
        assert steps == sorted(steps)

    def test_dense_model_flag(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["lil-run", "--model", "diagonal:2:12", "--horizon", "12",
                   "--eta", "1.2", "--allow-uncertified", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        cfg = read_json(out / "resolved-config.json")
        assert cfg["model"] == {"kind": "diagonal", "m": 2, "n": 12}
        assert cfg["strict"] is False
        assert read_json(out / "summary.json")["engine"] == "dense-certificate"

    def test_model_from_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "model": {"kind": "diagonal", "m": 2, "n": 10}, "horizon": 10,
            "eta": 1.2, "strict": False, "seed": 3}))
        out = tmp_path / "o"
        rc = main(["lil-run", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0

    def test_malformed_model_spec(self, tmp_path, capsys):
        rc = main(["lil-run", "--model", "tensor:2", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "kind:m:n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lil-run", "baseline-scalar"])
    @pytest.mark.parametrize("chunk", ["0", "-1"])
    def test_bad_chunk_exits_one(self, tmp_path, capsys, command, chunk):
        rc = main([command, "--horizon", "2000", "--paths", "8", "--chunk", chunk,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error:" in capsys.readouterr().err

    def test_too_short_horizon_exits_one(self, tmp_path, capsys):
        rc = main(["lil-run", "--horizon", "2", "--paths", "8",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        capsys.readouterr()


class TestBaselineAndDemo:
    def test_baseline_per_path(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["baseline-scalar", "--paths", "64", "--horizon", "2000",
                   "--per-path", "--out", str(out)])
        assert rc == 0
        summary = read_json(out / "summary.json")
        assert summary["preasymptotic"] is True
        assert len(read_csv(out / "paths.csv")) == 64

    def test_demo_ok(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["demo-semicircular", "--size", "60", "--steps", "400",
                   "--checkpoints", "20,400", "--ks-tol", "0.3",
                   "--out", str(out)])
        assert rc == 0
        assert len(read_csv(out / "trials.csv")) == 2

    def test_demo_tight_tolerance_exits_two(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["demo-semicircular", "--size", "60", "--steps", "400",
                   "--checkpoints", "20,400", "--ks-tol", "0.0001",
                   "--out", str(out)])
        assert rc == 2
        rep = read_json(out / "reproducer.json")
        assert rep["command"] == "demo-semicircular"
        assert rep["ks_first"] > 0.0001


@pytest.mark.skipif(shutil.which("nclil") is None, reason="entry point not installed")
def test_console_script(tmp_path):
    out = tmp_path / "o"
    proc = subprocess.run(["nclil", "verify-scalarineq", "--count", "3",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok" in proc.stdout
    assert (out / "summary.json").exists()
