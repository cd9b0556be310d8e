"""Smoke tests for the randomized sweep drivers at reduced trial counts."""

import concurrent.futures
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blas_pin import blas_threads, caller_blas_threads
import nclil
from nclil import verify
from nclil.errors import ConfigError
from nclil.filtration import CE_AXIOM_TOL
from nclil.operators import _openblas
from nclil.verify import (SweepResult, sweep_ce, sweep_chebyshev, sweep_doob,
                          sweep_dual_doob, sweep_expineq, sweep_scalar_bound,
                          write_rows_csv)


# Each sweep at a small size, and its summary keys in order before blas_threads.
_SMALL_SWEEPS = {
    "ce-axioms": (lambda: sweep_ce(samples=2, seed=0),
                  ["models", "samples", "worst_residual", "tol"]),
    "exp-moment": (lambda: sweep_expineq(trials=1, lambda_points=2, seed=0),
                   ["trials", "checks", "violations", "min_margin", "min_margin_positive_lambda",
                    "eps_values", "lambda_points"]),
    "doob": (lambda: sweep_doob(trials_per_kind=1, ps=(4.0,), kinds=("diagonal",), seed=0),
             ["checks", "held", "hold_rate", "inconclusive", "certified_violations"]),
    "dual-doob": (lambda: sweep_dual_doob(trials_per_kind=1, ps=(1.0,), kinds=("tensor",)),
                  ["checks", "violations", "max_ratio"]),
    "chebyshev": (lambda: sweep_chebyshev(trials=1, t_points=2, seed=0),
                  ["checks", "violations", "min_residual"]),
    "scalar-bound": (lambda: sweep_scalar_bound(random_count=1, seed=0),
                     ["checks", "violations", "min_log_margin"]),
}


@pytest.mark.parametrize("name", list(_SMALL_SWEEPS))
def test_summary_layout_and_counts(name):
    """summary.json keeps each sweep's own keys in order, blas_threads last,
    and its counts agree with the rows and violations returned."""
    run, keys = _SMALL_SWEEPS[name]
    res = run()
    assert res.name == name
    assert list(res.summary) == keys + ["blas_threads"]
    if "checks" in res.summary:
        assert res.summary["checks"] == len(res.rows)
    count = res.summary.get("violations", res.summary.get("certified_violations"))
    if count is not None:
        assert count == len(res.violations)


class TestSweepResult:
    def test_ok_tracks_violations(self):
        res = SweepResult(name="x", rows=[{"a": 1}], summary={})
        assert res.ok
        res.violations.append({"a": 1})
        assert not res.ok

    def test_to_json_counts_rows(self):
        res = SweepResult(name="x", rows=[{}, {}], summary={"k": 1})
        js = res.to_json()
        assert js["rows"] == 2
        assert js["ok"] is True
        assert js["summary"] == {"k": 1}


class TestWriteRowsCsv:
    def test_union_of_keys_preserves_order(self):
        rows = [{"a": 1, "b": 2}, {"a": 3, "c": 4}]
        buf = io.StringIO()
        write_rows_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,2,"
        assert lines[2] == "3,,4"

    def test_empty_rows_write_nothing(self):
        buf = io.StringIO()
        write_rows_csv([], buf)
        assert buf.getvalue() == ""


class TestCeSweep:
    def test_default_model_list(self):
        models = verify._CE_MODELS
        kinds = [m.kind for m in models]
        assert kinds.count("tensor") == 5
        assert kinds.count("pinching") == 5
        assert kinds.count("diagonal") == 1
        assert models[-1].dim == 10 ** 4

    def test_small_sweep_passes(self):
        res = sweep_ce(samples=5, seed=1)
        assert res.ok
        assert len(res.rows) == len(verify._CE_MODELS)
        assert res.summary["worst_residual"] <= 1e-8
        assert res.summary["tol"] == CE_AXIOM_TOL
        assert all("model" in r for r in res.rows)


class TestExpineqSweep:
    def test_small_sweep_no_violations(self):
        res = sweep_expineq(trials=4, lambda_points=5, seed=3)
        assert res.ok
        # one row per (trial, eps, lambda)
        assert len(res.rows) == 4 * 3 * 5
        assert res.summary["min_margin"] >= -1e-10

    def test_min_margin_over_positive_lambda(self):
        res = sweep_expineq(trials=3, lambda_points=4, seed=5)
        positive = [r["margin"] for r in res.rows if r["lam"] > 0.0]
        assert len(positive) == 3 * 3 * 3
        assert res.summary["min_margin_positive_lambda"] == min(positive)
        assert res.summary["min_margin_positive_lambda"] > 0.0
        assert res.summary["min_margin"] == min(r["margin"] for r in res.rows)
        only_zero = sweep_expineq(trials=1, lambda_points=1, seed=5)
        assert only_zero.summary["min_margin_positive_lambda"] is None

    def test_lambda_zero_is_tight(self):
        res = sweep_expineq(trials=2, lambda_points=4, seed=5)
        for row in res.rows:
            if row["lam"] == 0.0:
                assert row["log_lhs"] == pytest.approx(0.0, abs=1e-9)
                assert row["log_rhs"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("eps_values, message", [
        ((0.1, 0.5, 0.1), "eps lists 0.1 more than once"),
        ((0.5, -1.0), "eps must be positive"),
        ((0.0,), "eps must be positive"),
        ((float("nan"),), "eps must be positive"),
    ])
    def test_bad_eps_rejected(self, eps_values, message):
        with pytest.raises(ConfigError, match=message):
            sweep_expineq(trials=1, eps_values=eps_values, lambda_points=2)

    def test_workers_match_serial(self):
        serial = sweep_expineq(trials=4, lambda_points=3, seed=7, workers=1)
        parallel = sweep_expineq(trials=4, lambda_points=3, seed=7, workers=2)
        assert serial.rows == parallel.rows

    def test_same_seed_reproduces(self):
        a = sweep_expineq(trials=3, lambda_points=3, seed=11)
        b = sweep_expineq(trials=3, lambda_points=3, seed=11)
        assert a.rows == b.rows
        assert a.rows != sweep_expineq(trials=3, lambda_points=3, seed=12).rows


class TestPool:
    def test_no_more_processes_than_trials_or_cores(self, monkeypatch):
        """workers=10**6 asks a pool for at most min(trials, cores) processes.
        A recording serial executor stands in for the pool, so no process is
        started; the rows are the serial ones."""
        sizes = []

        class Recording:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)
                initializer()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize=1):
                return map(fn, args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        got = sweep_doob(trials_per_kind=1, ps=(4.0,), workers=10**6)
        expected = min(3, os.cpu_count() or 1)                  # one trial per kind
        assert sizes == ([expected] if expected > 1 else [])
        assert got.rows == sweep_doob(trials_per_kind=1, ps=(4.0,), workers=1).rows

    def test_cli_import_leaves_the_process_machinery_out(self):
        src = str(Path(nclil.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = ("import sys, nclil.cli; print(sorted(m for m in sys.modules "
                "if m.startswith(('multiprocessing', 'concurrent.futures.process'))))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestDoobSweep:
    def test_small_sweep(self):
        res = sweep_doob(trials_per_kind=2, ps=(4.0, 6.0), seed=0)
        assert len(res.rows) == 2 * 3 * 2
        assert res.summary["certified_violations"] == 0
        assert 0.0 <= res.summary["hold_rate"] <= 1.0
        for row in res.rows:
            assert row["verdict"] in ("holds", "inconclusive-certificate",
                                      "certified-violation")
            assert row["upper"] >= row["lower"] - 1e-9

    def test_kind_filter(self):
        res = sweep_doob(trials_per_kind=2, ps=(4.0,), kinds=("diagonal",), seed=1)
        assert {r["kind"] for r in res.rows} == {"diagonal"}


class TestDualDoobSweep:
    def test_small_sweep_holds(self):
        res = sweep_dual_doob(trials_per_kind=2, ps=(1.0, 2.0), seed=0)
        assert res.ok
        assert res.summary["max_ratio"] <= 1.0 + 1e-10
        # p = 1 rows realize equality, so the max ratio is exactly 1
        assert res.summary["max_ratio"] == pytest.approx(1.0, abs=1e-9)


class TestChebyshevSweep:
    def test_small_sweep(self):
        res = sweep_chebyshev(trials=2, t_points=6, seed=0)
        assert res.ok
        assert len(res.rows) == 2 * 6
        assert res.summary["min_residual"] >= -1e-10
        for row in res.rows:
            assert row["monotone_so_far"]

    def test_t_grid_spans_upper_bound(self):
        res = sweep_chebyshev(trials=1, t_points=5, seed=2)
        ts = [r["t"] for r in res.rows]
        assert ts == sorted(ts)
        # last t sits above the column norm bound, so only trace dust survives
        assert res.rows[-1]["probc_s"] <= 1e-12


class TestScalarBoundSweep:
    def test_grid_and_random_points_hold(self):
        res = sweep_scalar_bound(random_count=25, seed=0)
        assert res.ok
        assert res.summary["min_log_margin"] >= 0.0
        us = {r["u"] for r in res.rows}
        assert 0.0 in us
        assert any(u < 0 for u in us)


@pytest.mark.skipif(not _openblas(), reason="no OpenBLAS to pin")
class TestBlasPin:
    """Sweep trials run on one BLAS thread; the caller's setting comes back."""

    def test_sweep_restores_the_callers_thread_count(self, monkeypatch):
        seen = []
        trial = verify._doob_trial

        def spy(args):
            seen.append(blas_threads())
            return trial(args)

        def boom(args):
            raise RuntimeError("trial failed")

        with caller_blas_threads(2):
            callers = blas_threads()
            monkeypatch.setattr(verify, "_doob_trial", spy)
            res = sweep_doob(trials_per_kind=2, ps=(4.0,), kinds=("diagonal",), seed=0)
            assert seen == [[1] * len(callers)] * 2
            assert res.summary["blas_threads"] == 1
            assert blas_threads() == callers
            monkeypatch.setattr(verify, "_doob_trial", boom)
            with pytest.raises(RuntimeError, match="trial failed"):
                sweep_doob(trials_per_kind=1, ps=(4.0,), kinds=("diagonal",), seed=0)
            assert blas_threads() == callers

    def test_every_sweep_stamps_its_thread_setting(self):
        for run, _ in _SMALL_SWEEPS.values():
            res = run()
            assert res.summary["blas_threads"] == 1, res.name

    def test_expineq_rows_ignore_the_callers_threads_and_workers(self):
        # trials 16 and 21 (tensor n=8) round differently at 1 and 2
        # OpenBLAS threads when the sweep runs at the caller's setting
        runs = []
        for threads in (1, 2):
            with caller_blas_threads(threads):
                runs.append(sweep_expineq(trials=22, lambda_points=3, seed=0).rows)
        assert runs[0] == runs[1]
        with caller_blas_threads(2):
            pooled = sweep_expineq(trials=22, lambda_points=3, seed=0, workers=2).rows
        assert pooled == runs[0]
