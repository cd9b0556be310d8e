"""Randomized verification sweeps with reproducible per-trial records.

Each sweep draws a deterministic family of trials from (seed, index) named
streams, evaluates one inequality checker per trial, and returns every
per-trial row plus a summary.  Violating rows come back separately so the
CLI can emit a reproducer and a nonzero exit code.  Worker counts above
one fan trials out over processes; results are identical either way
because randomness is keyed to the trial index, never to scheduling.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import operators as op
from .errors import ConfigError
from .filtration import AlgebraModel, random_full_element, verify_ce_axioms
from .inequalities import (ExpIneqParams, chebyshev_bound,
                           column_maximal_norm_bounds, doob_consequence_check,
                           dual_doob_check, exp_moment_sides,
                           scalar_power_exp_bound)
from .martingales import (gen_diagonal_martingale, gen_model_martingale,
                          gen_tensor_martingale)
from .operators import Operator
from .rng import stream_rng


@dataclass
class SweepResult:
    name: str
    rows: list
    summary: dict
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"name": self.name, "summary": self.summary,
                "violations": self.violations, "ok": self.ok,
                "rows": len(self.rows)}


def write_rows_csv(rows: Sequence[dict], fileobj) -> None:
    if not rows:
        fileobj.write("")
        return
    fields = []
    for r in rows:
        for k in r:
            if k not in fields:
                fields.append(k)
    writer = csv.DictWriter(fileobj, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)


def _require_at_least(least: int, **counts: int) -> None:
    """Reject a sweep up front when a count would leave it nothing to check."""
    for name, value in counts.items():
        if value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")


def _run_trials(fn: Callable, args_list: Iterable[tuple], workers: int = 1) -> list:
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    args_list = list(args_list)
    if workers <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list, chunksize=8))


def default_ce_models() -> list:
    models = [AlgebraModel("tensor", 2, n) for n in range(2, 7)]
    models += [AlgebraModel("pinching", 2, n) for n in range(2, 7)]
    models.append(AlgebraModel("diagonal", 10, 4))
    return models


def sweep_ce(models: Sequence[AlgebraModel] | None = None, samples: int = 100,
             seed: int = 0) -> SweepResult:
    models = default_ce_models() if models is None else list(models)
    rows = []
    violations = []
    worst = 0.0
    for model in models:
        rep = verify_ce_axioms(model, samples=samples, seed=seed)
        row = rep.to_json()
        row["model"] = f"{model.kind}:m={model.m}:n={model.n}"
        rows.append(row)
        worst = max(worst, rep.worst)
        if not rep.passed:
            violations.append(row)
    return SweepResult(
        name="ce-axioms", rows=rows, violations=violations,
        summary={"models": len(models), "samples": samples,
                 "worst_residual": worst, "tol": 1e-8})


def _draw_martingale(rng: np.random.Generator, kind: str, seed: int):
    """One random martingale of the given carrier kind, O(1) scales."""
    if kind == "tensor":
        depth = int(rng.integers(2, 9))
        model = AlgebraModel("tensor", 2, depth)
        bounds = np.exp(0.3 * rng.standard_normal(depth))
        coupling = "haar" if rng.random() < 0.7 else "none"
        return gen_tensor_martingale(model, bound_seq=bounds, coupling=coupling,
                                     seed=seed), f"tensor:n={depth}"
    if kind == "pinching":
        depth = int(rng.integers(2, 7))
        model = AlgebraModel("pinching", 2, depth)
        bounds = np.exp(0.3 * rng.standard_normal(depth))
        return gen_model_martingale(model, bound_seq=bounds, seed=seed), f"pinching:n={depth}"
    if kind == "ensemble":
        horizon = int(np.round(10.0 ** rng.uniform(1.0, 4.0)))
        law = "rademacher" if rng.random() < 0.5 else "uniform"
        variance = float(np.exp(0.4 * rng.standard_normal()))
        return gen_diagonal_martingale(horizon, paths=512, law=law, variance=variance,
                                       seed=seed, keep_increments=False), f"ensemble:{law}:N={horizon}"
    raise ConfigError(f"unknown martingale kind {kind!r}")


def _expineq_trial(args) -> list:
    seed, i, eps_values, lambda_points = args
    rng = stream_rng(seed, i, "expineq-config")
    kind = ["tensor", "pinching", "ensemble"][int(rng.choice(3, p=[0.4, 0.3, 0.3]))]
    path, desc = _draw_martingale(rng, kind, seed=int(rng.integers(2 ** 31)))
    n = path.horizon
    M = float(np.max(path.dnorm[:n]))
    D2 = path.s2_of(n)
    rows = []
    for eps in eps_values:
        cap = np.sqrt(eps) / (M * (1.0 + eps))
        for lam in np.linspace(0.0, cap, lambda_points):
            params = ExpIneqParams(M=M, D2=D2, eps=float(eps), lam=float(lam))
            res = exp_moment_sides(path, n, params)
            rows.append({
                "trial": i, "carrier": desc, "n": n, "M": M, "D2": D2,
                "eps": float(eps), "lam": float(lam),
                "log_lhs": res.log_lhs, "log_rhs": res.log_rhs,
                "margin": res.margin, "holds": res.holds,
            })
    return rows


def sweep_expineq(trials: int = 1000, eps_values: Sequence[float] = (0.1, 0.5, 1.0),
                  lambda_points: int = 20, seed: int = 0, workers: int = 1) -> SweepResult:
    _require_at_least(1, trials=trials, lambda_points=lambda_points)
    args = [(seed, i, tuple(eps_values), lambda_points) for i in range(trials)]
    nested = _run_trials(_expineq_trial, args, workers)
    rows = [r for chunk in nested for r in chunk]
    violations = [r for r in rows if not r["holds"]]
    return SweepResult(
        name="exp-moment", rows=rows, violations=violations,
        summary={"trials": trials, "checks": len(rows),
                 "violations": len(violations),
                 "min_margin": min(r["margin"] for r in rows),
                 "eps_values": list(eps_values), "lambda_points": lambda_points})


def _doob_trial(args) -> list:
    seed, i, kind, ps = args
    rng = stream_rng(seed, i, f"doob-{kind}")
    sub = int(rng.integers(2 ** 31))
    if kind == "tensor":
        depth = int(rng.integers(4, 7))
        model = AlgebraModel("tensor", 2, depth)
        path = gen_tensor_martingale(model, bound_seq=np.exp(0.3 * rng.standard_normal(depth)),
                                     seed=sub)
    elif kind == "pinching":
        depth = int(rng.integers(4, 7))
        model = AlgebraModel("pinching", 2, depth)
        path = gen_model_martingale(model, bound_seq=np.exp(0.3 * rng.standard_normal(depth)),
                                    seed=sub)
    elif kind == "diagonal":
        depth = int(rng.integers(8, 11))
        model = AlgebraModel("diagonal", 2, depth)
        path = gen_model_martingale(model, bound_seq=np.exp(0.3 * rng.standard_normal(depth)),
                                    seed=sub)
    else:
        raise ConfigError(f"unknown kind {kind!r}")
    rows = []
    for p in ps:
        chk = doob_consequence_check(path, p)
        rows.append({
            "trial": i, "kind": kind, "depth": path.horizon, "p": p,
            "upper": chk.upper, "lower": chk.lower, "rhs": chk.rhs,
            "gap_ratio": chk.bounds.gap_ratio, "verdict": chk.verdict,
            "holds": chk.holds, "certified_violation": chk.certified_violation,
        })
    return rows


def sweep_doob(trials_per_kind: int = 100, ps: Sequence[float] = (4.0, 6.0, 8.0),
               kinds: Sequence[str] = ("tensor", "pinching", "diagonal"),
               seed: int = 0, workers: int = 1) -> SweepResult:
    _require_at_least(1, trials_per_kind=trials_per_kind)
    if min(ps) < 4.0:
        raise ConfigError(f"doob check needs p >= 4, got {list(ps)}")
    args = [(seed, i, kind, tuple(ps)) for kind in kinds for i in range(trials_per_kind)]
    nested = _run_trials(_doob_trial, args, workers)
    rows = [r for chunk in nested for r in chunk]
    violations = [r for r in rows if r["certified_violation"]]
    held = sum(1 for r in rows if r["holds"])
    return SweepResult(
        name="doob", rows=rows, violations=violations,
        summary={"checks": len(rows), "held": held,
                 "hold_rate": held / len(rows),
                 "inconclusive": sum(1 for r in rows if r["verdict"] == "inconclusive-certificate"),
                 "certified_violations": len(violations)})


def _dual_doob_trial(args) -> list:
    seed, i, kind, ps = args
    rng = stream_rng(seed, i, f"dualdoob-{kind}")
    depth = int(rng.integers(3, 6))
    model = AlgebraModel(kind, 2, depth)
    positives = []
    for _ in range(depth):
        g = random_full_element(model, rng, hermitian=True)
        positives.append(op.symmetrize(g @ g))     # square of hermitian, psd
    rows = []
    for p in ps:
        chk = dual_doob_check(model, positives, p)
        rows.append({
            "trial": i, "kind": kind, "depth": depth, "p": p,
            "lhs": chk.lhs, "rhs": chk.rhs, "cp": chk.cp, "holds": chk.holds,
        })
    return rows


def sweep_dual_doob(trials_per_kind: int = 50, ps: Sequence[float] = (1.0, 1.5, 2.0),
                    kinds: Sequence[str] = ("tensor", "pinching", "diagonal"),
                    seed: int = 0, workers: int = 1) -> SweepResult:
    _require_at_least(1, trials_per_kind=trials_per_kind)
    if min(ps) < 1.0 or max(ps) > 2.0:
        raise ConfigError(f"dual doob check needs p in [1, 2], got {list(ps)}")
    args = [(seed, i, kind, tuple(ps)) for kind in kinds for i in range(trials_per_kind)]
    nested = _run_trials(_dual_doob_trial, args, workers)
    rows = [r for chunk in nested for r in chunk]
    violations = [r for r in rows if not r["holds"]]
    return SweepResult(
        name="dual-doob", rows=rows, violations=violations,
        summary={"checks": len(rows), "violations": len(violations),
                 "max_ratio": max(r["lhs"] / r["rhs"] for r in rows if r["rhs"] > 0)})


def _chebyshev_trial(args) -> list:
    seed, i, t_points = args
    rng = stream_rng(seed, i, "chebyshev")
    dim = int(rng.integers(8, 33))
    count = int(rng.integers(2, 6))
    xs = []
    for _ in range(count):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        xs.append(Operator((g + g.conj().T) / (2.0 * np.sqrt(dim)), hermitian=True))
    p = float(rng.choice([2.0, 4.0, 6.0]))
    bounds = column_maximal_norm_bounds(xs, p=max(p, 2.0))
    top = max(bounds.upper, 1e-6)
    ts = np.linspace(0.2 * top, 1.5 * top, t_points)
    rows = []
    prev_s = None
    monotone = True
    for t in ts:
        res = chebyshev_bound(xs, float(t), p, bounds)
        if prev_s is not None and res.probc_s > prev_s + 1e-12:
            monotone = False
        prev_s = res.probc_s
        rows.append({
            "trial": i, "dim": dim, "count": count, "p": p, "t": float(t),
            "probc_s": res.probc_s, "rhs": res.rhs, "residual": res.residual,
            "holds": res.holds, "monotone_so_far": monotone,
        })
    return rows


def sweep_chebyshev(trials: int = 20, t_points: int = 20, seed: int = 0,
                    workers: int = 1) -> SweepResult:
    _require_at_least(1, trials=trials, t_points=t_points)
    args = [(seed, i, t_points) for i in range(trials)]
    nested = _run_trials(_chebyshev_trial, args, workers)
    rows = [r for chunk in nested for r in chunk]
    violations = [r for r in rows if not (r["holds"] and r["monotone_so_far"])]
    return SweepResult(
        name="chebyshev", rows=rows, violations=violations,
        summary={"checks": len(rows), "violations": len(violations),
                 "min_residual": min(r["residual"] for r in rows)})


def sweep_scalar_bound(random_count: int = 400, seed: int = 0) -> SweepResult:
    _require_at_least(0, random_count=random_count)
    us = [0.0]
    grid = np.concatenate([np.logspace(-3.0, 5.0, 17)])
    us += [float(v) for v in grid] + [float(-v) for v in grid]
    ps = [1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 64.0]
    rng = stream_rng(seed, label="scalar-bound")
    extra_u = rng.standard_normal(random_count) * 10.0 ** rng.integers(-2, 4, random_count)
    extra_p = 1.0 + np.abs(rng.standard_normal(random_count)) * 8.0
    rows = []
    for u in us:
        for p in ps:
            res = scalar_power_exp_bound(u, p)
            rows.append({"u": u, "p": p, "log_lhs": res.log_lhs,
                         "log_rhs": res.log_rhs, "holds": res.holds})
    for u, p in zip(extra_u, extra_p):
        res = scalar_power_exp_bound(float(u), float(p))
        rows.append({"u": float(u), "p": float(p), "log_lhs": res.log_lhs,
                     "log_rhs": res.log_rhs, "holds": res.holds})
    violations = [r for r in rows if not r["holds"]]
    return SweepResult(
        name="scalar-bound", rows=rows, violations=violations,
        summary={"checks": len(rows), "violations": len(violations),
                 "min_log_margin": min(r["log_rhs"] - r["log_lhs"] for r in rows)})
