"""End-to-end command line tests driven through main(argv)."""

import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nclil
from nclil import lil, verify
from nclil.cli import COMMANDS, build_parser, main


def read_json(path):
    with open(path) as f:
        return json.load(f)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def assert_error_summary(out, err):
    """An error that exits 1 after the output directory was made (the runner
    raised) leaves summary.json with status "error", the stderr line and the
    runtime; one raised before that leaves no directory at all."""
    if not (out / "resolved-config.json").exists():
        assert not out.exists()
        return
    summary = read_json(out / "summary.json")
    assert set(summary) == {"status", "message", "runtime_seconds"}
    assert summary["status"] == "error"
    assert summary["message"] == err.strip().splitlines()[-1]
    assert summary["runtime_seconds"] >= 0.0


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

    @pytest.mark.parametrize("argv", [
        ["verify-expineq", "--trials", "0"],
        ["verify-expineq", "--workers", "-3"],
        ["verify-expineq", "--lambda-points", "0"],
        ["verify-doob", "--trials-per-kind", "0"],
        ["verify-dualdoob", "--trials-per-kind", "0"],
        ["verify-chebyshev", "--trials", "0"],
        ["verify-chebyshev", "--t-points", "0"],
        ["verify-scalarineq", "--count", "-1"],
    ], ids=":".join)
    def test_empty_sweep_exits_one(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert (out / "resolved-config.json").exists()      # the sweep itself rejects it
        assert_error_summary(out, err)

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
        # the walker sizes its own chunk, so --chunk is an unknown option
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
        assert read_json(out / "resolved-config.json")["per_path"] is True

    def test_per_path_from_config_file(self, tmp_path):
        """per_path is a config key like any other; --per-path only sets it."""
        base = ["baseline-scalar", "--paths", "64", "--horizon", "2000"]
        cfg = _write(tmp_path, json.dumps({"per_path": True}))
        on, off = tmp_path / "on", tmp_path / "off"
        assert main([*base, "--config", cfg, "--out", str(on)]) == 0
        assert main([*base, "--out", str(off)]) == 0
        assert read_json(on / "resolved-config.json")["per_path"] is True
        assert read_json(off / "resolved-config.json")["per_path"] is False
        assert len(read_csv(on / "paths.csv")) == 64
        assert not (off / "paths.csv").exists()
        assert read_json(on / "summary.json")["median"] == read_json(off / "summary.json")["median"]

    def test_demo_ok(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["demo-semicircular", "--size", "60",
                   "--checkpoints", "20,400", "--ks-tol", "0.3",
                   "--out", str(out)])
        assert rc == 0
        assert len(read_csv(out / "trials.csv")) == 2

    def test_demo_tight_tolerance_exits_two(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["demo-semicircular", "--size", "60",
                   "--checkpoints", "20,400", "--ks-tol", "0.0001",
                   "--out", str(out)])
        assert rc == 2
        rep = read_json(out / "reproducer.json")
        assert rep["command"] == "demo-semicircular"
        assert rep["ks_first"] > 0.0001


class TestProgress:
    """--progress reports the walk on stderr and changes no output.  The clock
    reads 0.5 s more at each call, so a line is due after every second chunk
    of 512 steps (256 paths), at a rate of 1024 steps/s."""

    CALLS = {"lil-run": ["lil-run", "--horizon", "20000", "--paths", "256", "--seed", "2"],
             "baseline-scalar": ["baseline-scalar", "--horizon", "20000", "--paths", "256",
                                 "--per-path"]}

    @staticmethod
    def outputs(out):
        """Every file the run wrote but resolved-config.json, summary.json
        without its runtime."""
        files = {f.name: f.read_bytes() for f in out.iterdir()
                 if f.name not in ("resolved-config.json", "summary.json")}
        summary = read_json(out / "summary.json")
        del summary["runtime_seconds"]
        return summary, files

    @pytest.mark.parametrize("command", CALLS)
    def test_lines_on_stderr_outputs_unchanged(self, tmp_path, monkeypatch, capsys, command):
        argv, on, off = self.CALLS[command], tmp_path / "on", tmp_path / "off"
        assert main([*argv, "--out", str(off)]) == 0
        assert capsys.readouterr().err == ""
        ticks = iter(range(10 ** 6))
        monkeypatch.setattr(lil.time, "monotonic", lambda: 0.5 * next(ticks))
        assert main([*argv, "--progress", "--out", str(on)]) == 0
        err = capsys.readouterr().err
        assert read_json(on / "resolved-config.json")["progress"] is True
        assert self.outputs(on) == self.outputs(off)
        total = (int(read_csv(on / "blocks.csv")[-1]["k_end"]) if command == "lil-run"
                 else 20000)
        expected = []
        for j in range(1, -(-total // 512) // 2 + 1):     # after chunk 2j, at j seconds
            done = min(1024 * j, total)
            expected.append(f"{command}: {done}/{total} steps, {done / j:.0f} steps/s, "
                            f"ETA {(total - done) / (done / j):.0f} s")
        assert len(expected) > 5 and err.splitlines() == expected

    def test_off_leaves_the_walk_unwrapped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lil, "_with_progress", lambda *a: pytest.fail("walk wrapped"))
        for command, argv in self.CALLS.items():
            assert main([*argv, "--out", str(tmp_path / command)]) == 0


def _write(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return str(path)


class TestConfigErrors:
    """Bad values and bad config files end in exit 1 and `config error:`."""

    @pytest.mark.parametrize("command", ["lil-run", "baseline-scalar"])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, command):
        cfg = _write(tmp_path, json.dumps({"horizon": "abc"}))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config error: horizon:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read"),
        ("{\"samples\": ", "not valid JSON"),
        ("[1, 2]", "JSON object"),
    ], ids=["missing", "malformed", "list"])
    def test_bad_config_file(self, tmp_path, capsys, text, message):
        cfg = str(tmp_path / "absent.json") if text is None else _write(tmp_path, text)
        assert main(["verify-ce", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("argv", [
        ["lil-run", "--model", "tensor:x:3"],
        ["lil-run", "--generator", "dense"],
        ["verify-doob", "--p", ""],
        ["verify-doob", "--trials-per-kind", "1", "--p", "4,nan"],
        ["lil-run", "--horizon", "2000", "--paths", "8", "--variance", "nan"],
        ["lil-run", "--law", "gaussian"],
        ["lil-run", "--law", "alternating"],
        ["baseline-scalar", "--law", "alternating"],
        ["demo-semicircular", "--steps", "10000"],
        ["baseline-scalar", "--horizon", "1e3"],
        ["verify-ce", "--seed", "-1"],
        ["verify-doob", "--trials-per-kind", "1", "--kinds", "tensor,tensor"],
        ["verify-doob", "--trials-per-kind", "1", "--p", "4,6,4.0"],
        ["verify-dualdoob", "--trials-per-kind", "1", "--kinds", "diagonal,pinching,diagonal"],
        ["verify-dualdoob", "--trials-per-kind", "1", "--p", "1.5,1.5"],
        ["lil-run", "--beta", "1e200"],
        ["lil-run", "--delta", "1e308"],
        ["lil-run", "--horizon", "20000", "--paths", "64", "--delta-prime", "1e308"],
        ["lil-run", "--window-decades", "1e308"],
        ["lil-run", "--window-decades", "308.5"],
        ["lil-run", "--horizon", "100000000000000000000"],
        ["baseline-scalar", "--horizon", "100000000000000000000"],
        ["lil-run", "--horizon", "9007199254740992"],
        ["baseline-scalar", "--horizon", "9007199254740992"],
        ["demo-semicircular", "--checkpoints", "3"],
        ["lil-run", "--model", "tensor:2:4", "--horizon", "4", "--eta", "1.2",
         "--allow-uncertified", "--bound-scale", "1e200"],
        ["lil-run", "--model", "tensor:2:4", "--horizon", "4", "--eta", "1.2",
         "--allow-uncertified", "--bound-scale", "1e-200"],
    ], ids=":".join)
    def test_bad_value_exits_one(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert_error_summary(out, err)

    @pytest.mark.parametrize("command, key", [
        ("lil-run", "chunk"), ("baseline-scalar", "chunk"), ("demo-semicircular", "steps")])
    def test_removed_key_in_config_file_exits_one(self, tmp_path, capsys, command, key):
        cfg = _write(tmp_path, json.dumps({key: 2048}))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert f"config error: unknown config keys ['{key}']" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command, fn_name", [("verify-doob", "_doob_trial"),
                                                  ("verify-dualdoob", "_dual_doob_trial")])
    def test_unknown_kind_rejected_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                    command, fn_name):
        calls = []
        trial = getattr(verify, fn_name)
        monkeypatch.setattr(verify, fn_name, lambda args: calls.append(args) or trial(args))
        rc = main([command, "--trials-per-kind", "3", "--kinds", "tensor,foo",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: unknown kind 'foo'" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("eps", ["0.1,0.1", "0.1,0.5,0.10", "-1", "0", "0.5,-0.5"])
    def test_bad_eps_rejected_before_any_trial(self, tmp_path, capsys, monkeypatch, eps):
        calls = []
        monkeypatch.setattr(verify, "_expineq_trial", lambda args: calls.append(args) or [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")         # no numpy warning before the error
            rc = main(["verify-expineq", "--trials", "2", "--eps", eps,
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: eps" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command, entry", [
        ("lil-run", "run_lil_experiment"), ("baseline-scalar", "scalar_kolmogorov_baseline"),
        ("demo-semicircular", "semicircular_demo")])
    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch, command, entry):
        """A run too large for the machine, as numpy reports it, is a config error."""
        def oversized(cfg):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(lil, entry, oversized)
        out = tmp_path / "o"
        assert main([command, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory") and "7.28 TiB" in err
        assert (out / "resolved-config.json").exists()
        assert_error_summary(out, err)

    @pytest.mark.parametrize("argv, line", [
        (["lil-run", "--horizon", "20", "--paths", "4"], "error: no block at or beyond n0"),
        (["lil-run", "--horizon", "2", "--paths", "4"], "error: horizon 2 holds no complete"),
        (["lil-run", "--eta", "3"], "config error: eta must lie in (1, 2)")],
        ids=["strict-gate", "no-block", "eta"])
    def test_runner_error_writes_summary(self, tmp_path, capsys, argv, line):
        """lil-run exits 1 on a strict-gate failure, on a horizon with no
        complete block and on a bad eta, all raised by the runner, and records
        the error in summary.json beside resolved-config.json; no other
        output is written."""
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(line)
        assert sorted(f.name for f in out.iterdir()) == ["resolved-config.json", "summary.json"]
        assert_error_summary(out, err)

    def test_lists_from_text_or_array_resolve_alike(self, tmp_path):
        flags, cfg = tmp_path / "flags", tmp_path / "cfg"
        base = ["verify-doob", "--trials-per-kind", "1", "--kinds", "diagonal"]
        assert main([*base, "--p", "4,6", "--out", str(flags)]) == 0
        cfg_file = _write(tmp_path, json.dumps({"p": [4, 6], "kinds": ["diagonal"]}))
        assert main([*base[:3], "--config", cfg_file, "--out", str(cfg)]) == 0
        assert (read_json(flags / "resolved-config.json")
                == read_json(cfg / "resolved-config.json"))


# Option strings of every subcommand; the generated parser must keep them.
OPTIONS = {
    "verify-ce": {"--samples"},
    "verify-expineq": {"--trials", "--eps", "--lambda-points", "--workers"},
    "verify-doob": {"--trials-per-kind", "--p", "--kinds", "--workers"},
    "verify-dualdoob": {"--trials-per-kind", "--p", "--kinds", "--workers"},
    "verify-chebyshev": {"--trials", "--t-points", "--workers"},
    "verify-scalarineq": {"--count"},
    "lil-run": {"--horizon", "--paths", "--law", "--variance", "--eta", "--delta",
                "--delta-prime", "--eps", "--eps-prime", "--beta", "--checkpoints",
                "--window-decades", "--model", "--generator", "--bound-scale",
                "--allow-uncertified", "--progress"},
    "baseline-scalar": {"--paths", "--horizon", "--law", "--per-path", "--progress"},
    "demo-semicircular": {"--size", "--checkpoints", "--ks-tol"},
}
COMMON = {"-h", "--help", "--out", "--config", "--seed"}


def test_option_strings_are_pinned():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(OPTIONS)
    for name, sp in subparsers.items():
        got = {s for action in sp._actions for s in action.option_strings}
        assert got == OPTIONS[name] | COMMON, name


def _not_int_text(t):
    try:
        int(t)
    except ValueError:
        return True
    return False


def _not_number_text(t):
    try:
        return not math.isfinite(float(t))
    except ValueError:
        return True


_DICTS = st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
_LISTS = st.lists(st.one_of(st.booleans(), _DICTS), min_size=1, max_size=2)
_NUMBERS = st.one_of(st.integers(), st.floats(allow_nan=False))
# JSON values whose type never fits a key, chosen by the kind of its default.
WRONG = {
    bool: st.one_of(_NUMBERS, st.text(max_size=5), _LISTS, _DICTS),
    int: st.one_of(st.booleans(), st.floats().filter(lambda x: not x.is_integer()),
                   st.text(max_size=5).filter(_not_int_text), _LISTS, _DICTS),
    float: st.one_of(st.booleans(), st.text(max_size=5).filter(_not_number_text),
                     _LISTS, _DICTS),
    str: st.one_of(st.booleans(), _NUMBERS, _LISTS, _DICTS),
    list: st.one_of(st.booleans(), _NUMBERS, _DICTS, _LISTS, st.just([])),
    "model": st.one_of(st.booleans(), _NUMBERS, _LISTS, _DICTS,
                       st.text(max_size=5).filter(lambda t: t.count(":") != 2)),
}
KEYS = [(name, key) for name, cmd in COMMANDS.items() for key in cmd.keys]
ENTRY_POINTS = [(verify, name) for name in dir(verify) if name.startswith("sweep_")] + [
    (lil, "run_lil_experiment"), (lil, "scalar_kolmogorov_baseline"),
    (lil, "semicircular_demo")]


def _kind(key, default):
    if key == "model":
        return "model"
    if default is None:                 # eps_prime: a number or null
        return float
    return list if isinstance(default, tuple) else type(default)


@pytest.mark.parametrize("command, key", KEYS, ids=[f"{c}:{k}" for c, k in KEYS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_config_file_values_of_wrong_type_are_rejected(command, key, data):
    default = COMMANDS[command].keys[key][1]
    value = data.draw(WRONG[_kind(key, default)], label=key)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for module, name in ENTRY_POINTS:
            mp.setattr(module, name, lambda *a, **k: pytest.fail("a run started"))
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = Path(tmp) / "o"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert err.getvalue().startswith(f"config error: {key}:")
        assert not out.exists()


def _console(*argv):
    """The command as a process: the installed ``nclil`` entry point, or
    ``python -m nclil.cli`` on the source tree when it is not installed."""
    if shutil.which("nclil"):
        return subprocess.run(["nclil", *argv], capture_output=True, text=True, timeout=300)
    src = str(Path(nclil.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "nclil.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=300)


def test_console_script(tmp_path):
    out = tmp_path / "o"
    proc = _console("verify-scalarineq", "--count", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "ok" in proc.stdout
    assert (out / "summary.json").exists()


def test_console_script_bad_input(tmp_path):
    """Bad input as a process: exit 1, one config error line, no traceback."""
    out = tmp_path / "o"
    proc = _console("lil-run", "--eta", "3", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: eta must lie in (1, 2)")
    assert "Traceback" not in proc.stderr
    assert_error_summary(out, proc.stderr)
