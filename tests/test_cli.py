"""End-to-end command line tests driven through main(argv)."""

import contextlib
import csv
import io
import json
import math
import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclil import lil, verify
from nclil.cli import COMMANDS, build_parser, main


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
        assert "config error:" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

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
        ["baseline-scalar", "--horizon", "1e3"],
        ["verify-ce", "--seed", "-1"],
    ], ids=":".join)
    def test_bad_value_exits_one(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

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
                "--window-decades", "--model", "--generator", "--bound-scale", "--chunk",
                "--allow-uncertified"},
    "baseline-scalar": {"--paths", "--horizon", "--law", "--chunk", "--per-path"},
    "demo-semicircular": {"--size", "--steps", "--checkpoints", "--ks-tol"},
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


@pytest.mark.skipif(shutil.which("nclil") is None, reason="entry point not installed")
def test_console_script(tmp_path):
    out = tmp_path / "o"
    proc = subprocess.run(["nclil", "verify-scalarineq", "--count", "3",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok" in proc.stdout
    assert (out / "summary.json").exists()
