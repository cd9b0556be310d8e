"""Randomized verification sweeps with reproducible per-trial records.

Each sweep draws a deterministic family of trials from (seed, index) named
streams, evaluates one inequality checker per trial, and returns every
per-trial row plus a summary.  Violating rows come back separately so the
CLI can emit a reproducer and a nonzero exit code.  Worker counts above
one fan trials out over processes; results are identical either way
because randomness is keyed to the trial index, never to scheduling, and
every trial runs on one BLAS thread, whatever the caller's setting.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import operators as op
from .errors import ConfigError
from .filtration import (_KINDS, CE_AXIOM_TOL, AlgebraModel, _gaussian_hermitian,
                         random_full_element, verify_ce_axioms)
from .inequalities import (ExpIneqParams, chebyshev_bound,
                           column_maximal_norm_bounds, doob_consequence_check,
                           dual_doob_check, exp_moment_sides,
                           scalar_power_exp_bound)
from .martingales import (gen_diagonal_martingale, gen_model_martingale,
                          gen_tensor_martingale)
from .operators import Operator, _one_blas_thread, _pin_one_thread
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


def _require_kinds(kinds: Sequence[str]) -> None:
    """Reject an unknown model kind up front, before any trial of a known one runs."""
    for kind in kinds:
        if kind not in _KINDS:
            raise ConfigError(f"unknown kind {kind!r}, expected one of {_KINDS}")


def _require_distinct(**values: Sequence) -> None:
    """Reject a repeated sweep input, whose rows would be run and counted twice."""
    for name, seq in values.items():
        seq = list(seq)
        for i, v in enumerate(seq):
            if v in seq[:i]:
                raise ConfigError(f"{name} lists {v!r} more than once")


def _run_trials(fn: Callable, args_list: Iterable, workers: int = 1) -> tuple[list, int | None]:
    """fn over args_list, in order, on one BLAS thread per process.

    Returns (results, BLAS threads per process: 1, or None when none could
    be pinned).  With one thread, each trial's arithmetic is the same in
    every process and at every caller setting, so the results do not
    depend on the worker count or the caller's BLAS thread count.

    A pool starts all of its processes at its first task, so it gets no
    more than there are trials or cores; with one, no pool is started and
    the process machinery is not even imported.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    args_list = list(args_list)
    workers = min(workers, len(args_list), os.cpu_count() or 1)
    with _one_blas_thread() as threads:
        if workers <= 1:
            return [fn(a) for a in args_list], threads
        from concurrent.futures import ProcessPoolExecutor
        chunksize = max(1, math.ceil(len(args_list) / (4 * workers)))
        with ProcessPoolExecutor(max_workers=workers, initializer=_pin_one_thread) as pool:
            return list(pool.map(fn, args_list, chunksize=chunksize)), threads


def _collect(name: str, trial: Callable, args: Iterable, workers: int,
             violated: Callable[[dict], bool],
             summarize: Callable[[list, list], dict]) -> SweepResult:
    """One sweep: ``trial`` over ``args`` (``_run_trials``), each trial a list
    of rows; the rows in trial order, the ``violated`` ones, and the summary
    ``summarize(rows, violations)`` followed by the trials' BLAS threads."""
    nested, threads = _run_trials(trial, args, workers)
    rows = [r for chunk in nested for r in chunk]
    violations = [r for r in rows if violated(r)]
    return SweepResult(name=name, rows=rows, violations=violations,
                       summary={**summarize(rows, violations), "blas_threads": threads})


_CE_MODELS = ([AlgebraModel("tensor", 2, n) for n in range(2, 7)]
              + [AlgebraModel("pinching", 2, n) for n in range(2, 7)]
              + [AlgebraModel("diagonal", 10, 4)])


def _ce_trial(args) -> list:
    model, samples, seed = args
    return [{**verify_ce_axioms(model, samples=samples, seed=seed).to_json(),
             "model": f"{model.kind}:m={model.m}:n={model.n}"}]


def sweep_ce(samples: int = 100, seed: int = 0) -> SweepResult:
    return _collect(
        "ce-axioms", _ce_trial, [(model, samples, seed) for model in _CE_MODELS], 1,
        lambda r: not r["passed"],
        lambda rows, _: {"models": len(rows), "samples": samples,
                         "worst_residual": max(r["worst"] for r in rows), "tol": CE_AXIOM_TOL})


def _draw_martingale(rng: np.random.Generator, kind: str, seed: int):
    """One random martingale of the given carrier kind, O(1) scales."""
    if kind == "tensor":
        depth = int(rng.integers(2, 9))
        bounds = np.exp(0.3 * rng.standard_normal(depth))
        coupling = "haar" if rng.random() < 0.7 else "none"
        return gen_tensor_martingale(AlgebraModel("tensor", 2, depth), bound_seq=bounds,
                                     coupling=coupling, seed=seed), f"tensor:n={depth}"
    if kind == "pinching":
        depth = int(rng.integers(2, 7))
        bounds = np.exp(0.3 * rng.standard_normal(depth))
        return gen_model_martingale(AlgebraModel("pinching", 2, depth), bound_seq=bounds,
                                    seed=seed), f"pinching:n={depth}"
    horizon = int(np.round(10.0 ** rng.uniform(1.0, 4.0)))       # ensemble
    law = "rademacher" if rng.random() < 0.5 else "uniform"
    variance = float(np.exp(0.4 * rng.standard_normal()))
    return gen_diagonal_martingale(horizon, paths=512, law=law, variance=variance,
                                   seed=seed), f"ensemble:{law}:N={horizon}"


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
    _require_distinct(eps=eps_values)
    if not all(eps > 0.0 for eps in eps_values):
        raise ConfigError(f"eps must be positive, got {list(eps_values)}")
    return _collect(
        "exp-moment", _expineq_trial,
        [(seed, i, tuple(eps_values), lambda_points) for i in range(trials)], workers,
        lambda r: not r["holds"],
        lambda rows, violations: {
            "trials": trials, "checks": len(rows), "violations": len(violations),
            "min_margin": min(r["margin"] for r in rows),
            # lam = 0 has margin 0 exactly; None when the grid is lam = 0 alone
            "min_margin_positive_lambda": min(
                (r["margin"] for r in rows if r["lam"] > 0.0), default=None),
            "eps_values": list(eps_values), "lambda_points": lambda_points})


def _doob_trial(args) -> list:
    seed, i, kind, ps = args
    rng = stream_rng(seed, i, f"doob-{kind}")
    sub = int(rng.integers(2 ** 31))
    depth = int(rng.integers(*((8, 11) if kind == "diagonal" else (4, 7))))
    # looked up per call, so a wrapper installed on the module attribute sees it
    generate = gen_tensor_martingale if kind == "tensor" else gen_model_martingale
    path = generate(AlgebraModel(kind, 2, depth),
                    bound_seq=np.exp(0.3 * rng.standard_normal(depth)), seed=sub)
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
    _require_kinds(kinds)
    _require_distinct(kinds=kinds, ps=ps)
    if min(ps) < 4.0:
        raise ConfigError(f"doob check needs p >= 4, got {list(ps)}")

    def summarize(rows, violations):
        held = sum(1 for r in rows if r["holds"])
        return {"checks": len(rows), "held": held, "hold_rate": held / len(rows),
                "inconclusive": sum(1 for r in rows if r["verdict"] == "inconclusive-certificate"),
                "certified_violations": len(violations)}
    return _collect(
        "doob", _doob_trial,
        [(seed, i, kind, tuple(ps)) for kind in kinds for i in range(trials_per_kind)],
        workers, lambda r: r["certified_violation"], summarize)


def _dual_doob_trial(args) -> list:
    seed, i, kind, ps = args
    rng = stream_rng(seed, i, f"dualdoob-{kind}")
    depth = int(rng.integers(3, 6))
    model = AlgebraModel(kind, 2, depth)
    positives = []
    for _ in range(depth):
        g = random_full_element(model, rng)
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
    _require_kinds(kinds)
    _require_distinct(kinds=kinds, ps=ps)
    if min(ps) < 1.0 or max(ps) > 2.0:
        raise ConfigError(f"dual doob check needs p in [1, 2], got {list(ps)}")
    return _collect(
        "dual-doob", _dual_doob_trial,
        [(seed, i, kind, tuple(ps)) for kind in kinds for i in range(trials_per_kind)],
        workers, lambda r: not r["holds"],
        lambda rows, violations: {
            "checks": len(rows), "violations": len(violations),
            "max_ratio": max(r["lhs"] / r["rhs"] for r in rows if r["rhs"] > 0)})


def _chebyshev_trial(args) -> list:
    seed, i, t_points = args
    rng = stream_rng(seed, i, "chebyshev")
    dim = int(rng.integers(8, 33))
    count = int(rng.integers(2, 6))
    xs = [Operator(_gaussian_hermitian(rng, dim, 2.0 * np.sqrt(dim)), hermitian=True)
          for _ in range(count)]
    p = float(rng.choice([2.0, 4.0, 6.0]))
    bounds = column_maximal_norm_bounds(xs, p=p)
    top = max(bounds.upper, 1e-6)
    ts = np.linspace(0.2 * top, 1.5 * top, t_points)
    rows, prev_s, monotone = [], math.inf, True
    for t in ts:
        res = chebyshev_bound(xs, float(t), p, bounds)
        monotone = monotone and not res.probc_s > prev_s + 1e-12
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
    return _collect(
        "chebyshev", _chebyshev_trial, [(seed, i, t_points) for i in range(trials)], workers,
        lambda r: not (r["holds"] and r["monotone_so_far"]),
        lambda rows, violations: {"checks": len(rows), "violations": len(violations),
                                  "min_residual": min(r["residual"] for r in rows)})


def _scalar_trial(args) -> list:
    u, p = args
    res = scalar_power_exp_bound(u, p)
    return [{"u": u, "p": p, "log_lhs": res.log_lhs, "log_rhs": res.log_rhs,
             "holds": res.holds}]


def sweep_scalar_bound(random_count: int = 400, seed: int = 0) -> SweepResult:
    _require_at_least(0, random_count=random_count)
    grid = np.logspace(-3.0, 5.0, 17)
    us = [0.0] + [float(v) for v in grid] + [float(-v) for v in grid]
    ps = [1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 64.0]
    rng = stream_rng(seed, label="scalar-bound")
    extra_u = rng.standard_normal(random_count) * 10.0 ** rng.integers(-2, 4, random_count)
    extra_p = 1.0 + np.abs(rng.standard_normal(random_count)) * 8.0
    points = [(u, p) for u in us for p in ps]
    points += [(float(u), float(p)) for u, p in zip(extra_u, extra_p)]
    return _collect(
        "scalar-bound", _scalar_trial, points, 1, lambda r: not r["holds"],
        lambda rows, violations: {
            "checks": len(rows), "violations": len(violations),
            "min_log_margin": min(r["log_rhs"] - r["log_lhs"] for r in rows)})
