"""Smoke runs of the per-layer benchmark scripts at their smallest sizes.

The scripts import private names of the package; running them here makes a
rename break a test rather than the script.
"""

import csv
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import nclil
from nclil import LILParameters, lil, stopping_indices
from nclil.martingales import _STREAM_TILE, LinearBracket
from nclil.operators import _openblas

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_walk_times_the_engines_tile(tmp_path):
    """Both laws, each on its integer partials at 2048 steps a chunk (64
    paths): int16 for rademacher, int32 for uniform, with the engines' work
    buffer of a quarter tile, and the running max restarted at the 9
    eta-adic boundaries lil-run's default bracket crosses in 2048 steps."""
    bench_walk = _load("bench_walk")
    for law, dtype in (("rademacher", "int16"), ("uniform", "int32")):
        out = tmp_path / f"walk-{law}.json"
        argv = ["--law", law, "--paths", "64", "--chunks", "1", "--repeats", "1",
                "--out", str(out)]
        assert bench_walk.main(argv) == 0
        result = json.loads(out.read_text())
        assert result["config"]["tile_floats"] == _STREAM_TILE
        assert result["config"]["chunk"] == _STREAM_TILE // 64
        assert result["config"]["partial_dtype"] == dtype
        assert result["config"]["work_floats"] == max(_STREAM_TILE // 4, _STREAM_TILE // 64 + 2)
        ks = stopping_indices(np.arange(1.0, _STREAM_TILE // 64 + 1), LILParameters().eta).ks
        assert result["config"]["boundaries"] == len(ks) - 1 == 9
        assert set(result["layers"]) == {"draw", "walk", "consume", "total"}
        assert 0.0 < result["flagged_fraction"] <= 1.0
    odd = tmp_path / "walk-odd.json"                  # any path count >= 1, as in the engines
    assert bench_walk.main(["--paths", "63", "--chunks", "1", "--repeats", "1",
                            "--out", str(odd)]) == 0
    assert json.loads(odd.read_text())["config"]["chunk"] == _STREAM_TILE // 63


def test_bench_walk_reads_the_engines_windows(monkeypatch):
    """The kernel's normalizers are lil-run's, the closed-form bracket's
    ``norm_range``, served through the engines' window helper: after a
    one-chunk warm-up, 5 chunks of 2048 steps (64 paths) take one window of
    _NORM_WINDOW = 8192 steps and one of the rest."""
    bench_walk = _load("bench_walk")
    windows, norm_range = [], LinearBracket.norm_range
    monkeypatch.setattr(LinearBracket, "norm_range",
                        lambda self, a, b: windows.append((a, b)) or norm_range(self, a, b))
    assert bench_walk.main(["--paths", "64", "--chunks", "5", "--repeats", "1"]) == 0
    assert windows == [(0, 2048), (0, 8192), (8192, 10240)]


def test_bench_walk_consumes_with_lil_runs_kernel(monkeypatch):
    """The consume layer is the engines' own kernel, called with lil-run's
    section ends (then the walk's last step), its default checkpoint grid
    and its integer dtype; the fraction flagged comes from the count of
    divided columns the kernel returns."""
    bench_walk = _load("bench_walk")
    kernel, calls = lil._consume, []
    assert bench_walk._consume is kernel

    def recording(walk, paths, ends, norms, cp_steps, dtype):
        result = kernel(walk, paths, ends, norms, cp_steps, dtype)
        calls.append((paths, list(ends), cp_steps, dtype, result[3]))
        return result

    monkeypatch.setattr(bench_walk, "_consume", recording)
    monkeypatch.setattr(lil, "_consume", recording)
    total = 5 * 2048
    lil.run_lil_experiment(lil.LILRunConfig(horizon=total, paths=64, strict=False))
    (_, engine_ends, _, _, _), = calls
    calls.clear()
    assert bench_walk.main(["--paths", "64", "--chunks", "5", "--repeats", "1"]) == 0
    paths, ends, cp_steps, dtype, divided = calls[-1]              # after the warm-up
    assert paths == 64 and ends == [*engine_ends, total] and dtype == np.uint16
    np.testing.assert_array_equal(
        cp_steps, lil._checkpoint_steps(total, lil.LILRunConfig().checkpoints))
    assert 0 < divided <= 64 * (len(set(range(0, total, 2048)) | set(ends)) - 1)


def test_bench_walk_draw_layer_is_the_chunkers_next(monkeypatch, tmp_path):
    """The draw layer is the time spent in the chunker's ``next`` (here
    stretched by 50 ms a block) and the walk layer what the walk adds
    around it, so the stretch lands in the draw layer alone."""
    bench_walk = _load("bench_walk")
    chunker, blocks = bench_walk._atom_chunks, []

    def slow(*args):
        for pos, block in chunker(*args):
            time.sleep(0.05)
            blocks.append(pos)
            yield pos, block

    monkeypatch.setattr(bench_walk, "_atom_chunks", slow)
    out = tmp_path / "walk.json"
    assert bench_walk.main(["--paths", "64", "--chunks", "3", "--repeats", "1",
                            "--out", str(out)]) == 0
    layers = json.loads(out.read_text())["layers"]
    assert blocks == [0, 0, 2048, 4096]                # the warm-up pass, then 3 chunks
    assert layers["draw"]["median"] >= 0.05 > layers["walk"]["median"]


def test_bench_cert_runs(tmp_path):
    out = tmp_path / "cert.json"
    assert _load("bench_cert").main(["--repeats", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["config"]["blas_threads"] == (1 if _openblas() else None)
    assert result["families"]["doob"] == 24
    calls = result["feasibilize_calls"]
    assert 0 < calls["doob.shared"] < calls["doob.cold"]
    screen = result["screen_by_dim"]
    assert screen and all(c["cleared"] + c["eigvalsh"] > 0 for c in screen.values())
    assert result["config"]["operator_dims"] == [16, 64, 256]
    timed = result["operator_us"]
    assert set(timed) == {"construct", "symmetrize", "eigenvalues"}
    for by_dim in timed.values():
        assert set(by_dim) == {"16", "64", "256"}
        assert all(0.0 < t["min"] <= t["median"] <= t["max"] for t in by_dim.values())
    peaks = result["generator_peak_mib"]
    assert set(peaks) == {"model", "tensor"}
    assert all(1.0 < mib < 6.0 for mib in peaks.values())   # the path alone holds 1.34 MiB


def test_run_verifications_one_sweep(tmp_path):
    """The sweep runner as a program, in a fresh working directory.  At seed 1
    the two exp-moment trials include an ensemble trial, so the run goes
    through the mirrored ensemble generator."""
    src = str(Path(nclil.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_verifications.py"), "expineq",
                           "--trials", "2", "--seed", "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "verify-expineq: exit 0" in proc.stdout
    out = tmp_path / "out" / "verify-expineq"
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["trials"] == 2 and summary["violations"] == 0
    assert summary["checks"] == 2 * 3 * 20
    with open(out / "trials.csv", newline="") as f:
        carriers = {row["carrier"] for row in csv.DictReader(f)}
    assert any(c.startswith("ensemble:") for c in carriers)
