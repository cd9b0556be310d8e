"""Iterated-logarithm experiments: one block-table core, two realizations, baselines.

A TailReport re-executes the block decomposition behind the
almost-uniform iterated-logarithm bound.  One core cuts time into
eta-adic blocks at the bracket's stopping times, finds the gate onsets
and used blocks, bounds each block's tail, and assembles the union
bound, the limsup of the normalized martingale compressed by the kept
projection e, the series and the summability checks.  The two engines
differ only in how a block's exceptional set is realized: per path of a
streamed classical ensemble (e keeps the paths that never exceed), or as
the spectral projection of a column-norm certificate on a dense model
(e intersects those projections).

Two classical baselines accompany the engines: a scalar random walk,
streamed by the same chunked walker, whose last-decade running maximum
calibrates where the desk scale sits relative to the asymptotic
constant, and a semicircular sum demo showing the normalized statistic
drifting down toward the free-probability edge.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import operators as op
from .errors import ConfigError, InsufficientHorizonError
from .filtration import AlgebraModel
from .inequalities import (BlockBound, block_tail_bound,
                           column_maximal_norm_bounds, probc_upper)
from .martingales import (StoppingRule, gen_model_martingale,
                          gen_tensor_martingale, gue_matrix, iterlog,
                          iterlog_seq, law_variance_factor,
                          sample_step_increments, stopping_indices)
from .operators import Projection
from .rng import stream_rng


@dataclass(frozen=True)
class LILParameters:
    """Block-decomposition parameters.

    beta is the target constant, delta the block-level slack, delta_prime
    the slack of the final statement, eps the exponential-moment slack and
    eps_prime the slow-variation allowance of the normalizer.  Summability
    of the block bounds requires beta^2 (1+delta)^2 / (4(1+eps)) > 1,
    which is enforced hard.  The transfer from block certificates to the
    per-step statement additionally wants
    (1+delta_prime) > eta (1+delta) / (1-eps_prime); that relation is not
    enforced, because useful desk-scale parameter points violate it.  It
    is surfaced as ``reduction_certified`` instead, and eps_prime is
    auto-derived (half the available room) whenever the room exists.
    """

    eta: float = 1.5
    delta: float = 0.1
    delta_prime: float = 0.1
    eps: float = 0.1
    eps_prime: float | None = None
    beta: float = 2.0

    def __post_init__(self):
        if not 1.0 < self.eta < 2.0:
            raise ConfigError(f"eta must lie in (1, 2), got {self.eta}")
        if self.delta <= 0 or self.delta_prime <= 0:
            raise ConfigError("delta and delta_prime must be positive")
        if not 0.0 < self.eps <= 1.0:
            raise ConfigError(f"eps must lie in (0, 1], got {self.eps}")
        if self.beta <= 0:
            raise ConfigError("beta must be positive")
        if self.eps_prime is not None and not 0.0 < self.eps_prime < 1.0:
            raise ConfigError("eps_prime must lie in (0, 1)")
        if self.series_exponent <= 1.0:
            raise ConfigError(
                f"beta^2(1+delta)^2/(4(1+eps)) = {self.series_exponent:.6g} <= 1: "
                "the block series cannot converge")

    @property
    def series_exponent(self) -> float:
        return self.beta ** 2 * (1.0 + self.delta) ** 2 / (4.0 * (1.0 + self.eps))

    @property
    def threshold(self) -> float:
        return self.beta * (1.0 + self.delta_prime)

    @property
    def eps_prime_room(self) -> float:
        return 1.0 - self.eta * (1.0 + self.delta) / (1.0 + self.delta_prime)

    @property
    def eps_prime_resolved(self) -> float:
        if self.eps_prime is not None:
            return self.eps_prime
        if self.eps_prime_room > 0.0:
            return 0.5 * self.eps_prime_room
        return 0.05

    @property
    def transfer_constant(self) -> float:
        """Norm constant the block-to-step transfer actually yields."""
        return self.beta * self.eta * (1.0 + self.delta) / (1.0 - self.eps_prime_resolved)

    @property
    def reduction_certified(self) -> bool:
        return self.transfer_constant <= self.threshold * (1.0 + 1e-12)

    def to_json(self) -> dict:
        return {
            "eta": self.eta, "delta": self.delta, "delta_prime": self.delta_prime,
            "eps": self.eps, "eps_prime": self.eps_prime, "beta": self.beta,
            "eps_prime_resolved": self.eps_prime_resolved,
            "series_exponent": self.series_exponent,
            "threshold": self.threshold,
            "transfer_constant": self.transfer_constant,
            "reduction_certified": self.reduction_certified,
        }


@dataclass(frozen=True)
class BlockRow:
    """Everything the pipeline knows about one eta-adic block."""

    n: int
    k_start: int
    k_end: int
    s2_end: float
    u_end: float
    alpha_end: float
    bound: BlockBound
    q_block: float          # exceptional mass of the per-step event
    q_theory: float         # exceptional mass of the event theory bounds
    semantics: str          # "empirical" or "certificate"
    used: bool

    def to_json(self) -> dict:
        return {
            "n": self.n, "k_start": self.k_start, "k_end": self.k_end,
            "s2_end": self.s2_end, "u_end": self.u_end, "alpha_end": self.alpha_end,
            "bound_exact": self.bound.bound_exact, "bound_final": self.bound.bound_final,
            "lam": self.bound.lam, "p": self.bound.p,
            "gate_p": self.bound.gate_p, "gate_ell": self.bound.gate_ell,
            "gate_alpha": self.bound.gate_alpha,
            "exact_le_final": self.bound.exact_le_final,
            "q_block": self.q_block, "q_theory": self.q_theory,
            "semantics": self.semantics, "used": self.used,
        }


@dataclass
class TailReport:
    engine: str
    params: LILParameters
    horizon: int
    seed: int
    law: str
    carrier: str                 # e.g. "paths=4096" or a model description
    threshold: float
    n0: int
    n1: int
    n2: int
    blocks: list
    used_blocks: list
    deficit: float
    union_bound: float
    empirical_limsup: float
    limsup_windows: dict
    series_theory_terms: list
    series_theory_cumulative: list
    series_theory_total: float
    series_empirical_total: float
    bc: dict
    e: Projection
    truncated: bool = False
    gates_waived: bool = False
    checkpoints: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0

    def to_json(self) -> dict:
        """Deterministic summary; runtime and the projection stay out."""
        return {
            "engine": self.engine,
            "params": self.params.to_json(),
            "horizon": self.horizon,
            "seed": self.seed,
            "law": self.law,
            "carrier": self.carrier,
            "threshold": self.threshold,
            "n0": self.n0, "n1": self.n1, "n2": self.n2,
            "blocks": [b.to_json() for b in self.blocks],
            "used_blocks": list(self.used_blocks),
            "deficit": self.deficit,
            "union_bound": self.union_bound,
            "projection_trace": 1.0 - self.deficit,
            "empirical_limsup": self.empirical_limsup,
            "limsup_windows": self.limsup_windows,
            "series_theory_terms": list(self.series_theory_terms),
            "series_theory_cumulative": list(self.series_theory_cumulative),
            "series_theory_total": self.series_theory_total,
            "series_empirical_total": self.series_empirical_total,
            "bc": self.bc,
            "truncated": self.truncated,
            "gates_waived": self.gates_waived,
        }


@dataclass
class LILRunConfig:
    """One experiment: parameters plus a carrier.

    With ``model`` unset the experiment streams a classical path ensemble
    (law/variance/paths); with a model it builds a dense martingale and
    runs the certificate route, which only makes sense at small horizons.
    """

    params: LILParameters = field(default_factory=LILParameters)
    horizon: int = 1_000_000
    paths: int = 4096
    law: str = "rademacher"
    variance: float = 1.0
    seed: int = 0
    model: AlgebraModel | None = None
    generator: str = "model"          # dense engine: "tensor" | "model"
    bound_scale: float = 1.0
    checkpoints: int = 200
    window_decades: float = 1.0
    strict: bool = True
    chunk: int = 2048

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.model is None:
            if self.paths < 2 or self.paths % 2:
                raise ConfigError("paths must be even and >= 2")
            if self.variance <= 0:
                raise ConfigError("variance must be positive")
        if self.generator not in ("tensor", "model"):
            raise ConfigError(f"unknown dense generator {self.generator!r}")
        if self.checkpoints < 2:
            raise ConfigError("need at least two checkpoints")
        if self.window_decades <= 0:
            raise ConfigError("window_decades must be positive")
        if self.chunk < 1:
            raise ConfigError("chunk must be >= 1")

    def to_json(self) -> dict:
        out = {
            "params": self.params.to_json(), "horizon": self.horizon,
            "paths": self.paths, "law": self.law, "variance": self.variance,
            "seed": self.seed, "generator": self.generator,
            "bound_scale": self.bound_scale, "checkpoints": self.checkpoints,
            "window_decades": self.window_decades, "strict": self.strict,
            "chunk": self.chunk,
            "model": None if self.model is None else self.model.to_json(),
        }
        return out


def run_lil_experiment(cfg: LILRunConfig) -> TailReport:
    start = time.perf_counter()
    report = (_run_streaming if cfg.model is None else _run_dense)(cfg)
    report.runtime_seconds = time.perf_counter() - start
    return report


def _checkpoint_steps(total: int, count: int) -> np.ndarray:
    grid = np.unique(np.round(np.logspace(0.0, math.log10(total), count)).astype(np.int64))
    return grid[(grid >= 1) & (grid <= total)]


@dataclass(frozen=True)
class _Realization:
    """How one engine realized the exceptional sets of the blocks."""

    semantics: str               # "empirical" or "certificate"
    q_block: Sequence            # per block 1..B
    q_theory: Sequence
    e: Projection
    deficit: float
    levels: np.ndarray           # bracket s^2 at each point of the kept statistic
    kept_sup: np.ndarray         # sup of the compressed normalized martingale there
    cp_steps: np.ndarray         # checkpoint steps and their r_* statistics
    cp_stats: dict


# Slack of the summability checks per engine: (union slack, absolute and
# relative limsup slack).  The dense kernel intersection is only
# fuzz-accurate, hence its looser pair until it is computed exactly.
_BC_TOLERANCES = {
    "streaming-ensemble": (1e-12, 1e-12, 0.0),
    "dense-certificate": (1e-8, 0.0, 1e-4),
}


def _bc_checks(deficit: float, union: float, limsup: float, thr: float,
               theory_total: float, tol: tuple) -> dict:
    """Summability wiring: which implications hold on this run."""
    union_slack, limsup_abs, limsup_rel = tol
    union_ok = deficit <= union + union_slack
    limsup_ok = (not math.isfinite(limsup)) or limsup <= thr * (1.0 + limsup_rel) + limsup_abs
    certifies = theory_total < 1.0        # only then does theory say anything
    implied_ok = (not certifies) or deficit <= theory_total + 1e-12
    return {
        "union_bound_ok": bool(union_ok),
        "limsup_below_threshold_ok": bool(limsup_ok),
        "theory_total_certifies": bool(certifies),
        "theory_implies_deficit_ok": bool(implied_ok),
        "ok": bool(union_ok and limsup_ok and implied_ok),
    }


def _block_report(engine: str, cfg: LILRunConfig, s2: np.ndarray, u: np.ndarray,
                  dnorm: np.ndarray, realize: Callable, horizon: int, law: str,
                  carrier: str, knob: str) -> TailReport:
    """Block decomposition of one run around an engine's realization.

    Blocks run between the eta-adic stopping times of the bracket profile
    s2.  The used blocks start at n0 = max(n1, n2), n1 and n2 being the
    first blocks from which the ratio and alpha gates hold onward; with no
    such block a strict run fails, otherwise all blocks are used with the
    gates waived.  ``realize(rule, used)`` realizes their exceptional sets.
    """
    pars = cfg.params
    thr = pars.threshold
    rule = stopping_indices(s2, pars.eta)
    B, ks = rule.blocks, rule.ks
    if B < 1:
        raise InsufficientHorizonError(
            f"horizon {horizon} holds no complete block at eta = {pars.eta}")
    if int(ks[2:].min()) < 1:
        raise ConfigError(f"one step crosses several thresholds; shrink {knob}")
    end_idx = ks[2:] - 1                           # step k_{n+1} of block n = 1..B
    s2_end, u_end = s2[end_idx], u[end_idx]
    alpha_end = dnorm[end_idx] * u_end / np.sqrt(s2_end)
    u_start = u[ks[1:-1]]                          # step k_n + 1 of block n

    alpha_cap = 2.0 * math.sqrt(pars.eps) / (pars.beta * (1.0 + pars.delta))
    ratio_floor = 1.0 - pars.eps_prime_resolved
    # onset = one past the last block (index i, so block i + 1) that fails the gate
    n1 = int(np.flatnonzero(u_start / u_end < ratio_floor).max(initial=-1)) + 2
    n2 = int(np.flatnonzero(alpha_end > alpha_cap).max(initial=-1)) + 2
    n0 = max(n1, n2)
    used = list(range(n0, B + 1))
    gates_waived = not used
    if gates_waived:
        if cfg.strict:
            raise InsufficientHorizonError(
                f"no block at or beyond n0 = {n0} within {B} realized blocks; "
                "re-run with strict=False to inspect uncertified blocks")
        used = list(range(1, B + 1))

    real = realize(rule, used)
    rows = [BlockRow(
        n=n, k_start=int(ks[n]), k_end=int(ks[n + 1]), s2_end=float(s2_end[n - 1]),
        u_end=float(u_end[n - 1]), alpha_end=float(alpha_end[n - 1]),
        bound=block_tail_bound(n, pars.eta, pars.delta, pars.eps, pars.beta,
                               s2_next=float(s2_end[n - 1]), alpha_next=float(alpha_end[n - 1])),
        q_block=float(real.q_block[n - 1]), q_theory=float(real.q_theory[n - 1]),
        semantics=real.semantics, used=n in used) for n in range(1, B + 1)]
    union = float(sum(rows[n - 1].q_block for n in used))
    top = float(s2_end[used[-1] - 1])

    def window_limsup(decades: float | None) -> float:
        floor = -math.inf if decades is None else top / 10.0 ** decades
        vals = real.kept_sup[(real.levels > floor) & np.isfinite(real.kept_sup)]
        return float(vals.max()) if vals.size else math.nan

    limsup = window_limsup(cfg.window_decades)
    windows = {f"decades={cfg.window_decades:g}": limsup, "decades=2": window_limsup(2.0),
               "all-used": window_limsup(None)}

    terms = [rows[n - 1].bound.bound_final for n in used]
    cumulative = list(np.cumsum(terms))
    theory_total = float(cumulative[-1]) if cumulative else 0.0
    bc = _bc_checks(real.deficit, union, limsup, thr, theory_total, _BC_TOLERANCES[engine])
    cp = real.cp_steps
    cps = {"m": cp.tolist(), "s2": s2[cp - 1].tolist(), "u": u[cp - 1].tolist(),
           **real.cp_stats}

    return TailReport(
        engine=engine, params=pars, horizon=horizon, seed=cfg.seed, law=law,
        carrier=carrier, threshold=thr, n0=n0, n1=n1, n2=n2, blocks=rows,
        used_blocks=used, deficit=real.deficit, union_bound=union,
        empirical_limsup=limsup, limsup_windows=windows,
        series_theory_terms=terms, series_theory_cumulative=cumulative,
        series_theory_total=theory_total, series_empirical_total=union,
        bc=bc, e=real.e, truncated=rule.truncated, gates_waived=gates_waived,
        checkpoints=cps)


def _walk(draw: Callable[[int, int], np.ndarray], paths: int, total: int,
          chunk: int) -> Iterator[tuple]:
    """Chunked partial sums of an ensemble walk.

    ``draw(pos, take)`` returns a fresh (take, paths) array of the
    increments of steps pos+1 .. pos+take; the walk may write into it.
    Yields (pos, C) with C[p, j] = S_{pos+j+1} of path p, which the
    consumer may overwrite.  The paths-major layout lets per-path work walk
    contiguous memory, so running maxima need only segmented reductions.
    """
    S = np.zeros(paths)
    pos = 0
    while pos < total:
        take = int(min(chunk, total - pos))
        C = np.ascontiguousarray(draw(pos, take).T)
        np.cumsum(C, axis=1, out=C)
        C += S[:, None]
        S = C[:, -1].copy()
        yield pos, C
        pos += take


def _run_streaming(cfg: LILRunConfig) -> TailReport:
    """Exceptional sets realized per path: e keeps the paths that never exceed."""
    pars = cfg.params
    N, P = cfg.horizon, cfg.paths
    scale = math.sqrt(cfg.variance / law_variance_factor(cfg.law))   # per-step difference bound
    s2 = cfg.variance * np.arange(1, N + 1, dtype=np.float64)
    u = np.sqrt(iterlog_seq(s2))
    norm = np.sqrt(s2) * u
    rng = stream_rng(cfg.seed, label=f"lil-stream-{cfg.law}")

    def draw(pos: int, take: int) -> np.ndarray:
        return sample_step_increments(rng, cfg.law, scale, P, steps=take)

    def realize(rule: StoppingRule, used: list) -> _Realization:
        ks, B = rule.ks, rule.blocks
        total = int(ks[-1])                        # stream only through the last boundary
        prefix = np.zeros(P)
        n_sections = len(ks) - 1                   # sections 0..B, section i = (ks[i], ks[i+1]]
        blockmax = np.full((n_sections, P), -np.inf)
        snapshots = np.zeros((n_sections, P))      # prefix max of |S| at each ks[i+1]
        cp_steps = _checkpoint_steps(total, cfg.checkpoints)
        cp_rows = np.zeros((len(cp_steps), P))
        sec = 0
        for pos, C in _walk(draw, P, total, cfg.chunk):
            take = C.shape[1]
            absC = np.abs(C, out=C)
            R = absC / norm[pos:pos + take][None, :]
            lo_cp = np.searchsorted(cp_steps, pos, side="right")
            hi_cp = np.searchsorted(cp_steps, pos + take, side="right")
            for j in range(lo_cp, hi_cp):
                cp_rows[j] = R[:, int(cp_steps[j]) - pos - 1]
            while sec < n_sections:
                a = max(int(ks[sec]), pos)
                b = min(int(ks[sec + 1]), pos + take)
                if b > a:
                    sl = slice(a - pos, b - pos)
                    np.maximum(blockmax[sec], R[:, sl].max(axis=1), out=blockmax[sec])
                    np.maximum(prefix, absC[:, sl].max(axis=1), out=prefix)
                if int(ks[sec + 1]) <= pos + take:
                    snapshots[sec] = prefix
                    sec += 1
                else:
                    break

        exceed = blockmax[1:B + 1] > pars.threshold        # rows: block n = 1..B
        theory_thr = pars.beta * (1.0 + pars.delta) * norm[ks[2:] - 1]
        exceed_theory = snapshots[1:B + 1] > theory_thr[:, None]
        used_ix = np.asarray(used)
        bad = exceed[used_ix - 1].any(axis=0)
        kept = ~bad
        kept_rows = cp_rows[:, kept] if kept.any() else np.full((len(cp_steps), 1), np.nan)
        return _Realization(
            semantics="empirical", q_block=exceed.mean(axis=1),
            q_theory=exceed_theory.mean(axis=1),
            e=Projection(kept.astype(np.float64), diagonal=True), deficit=float(bad.mean()),
            levels=s2[ks[used_ix + 1] - 1],
            kept_sup=blockmax[used_ix][:, kept].max(axis=1, initial=-np.inf),
            cp_steps=cp_steps, cp_stats={"r_max_all": cp_rows.max(axis=1).tolist(),
                                         "r_max_kept": kept_rows.max(axis=1).tolist(),
                                         "r_mean_kept": kept_rows.mean(axis=1).tolist()})

    return _block_report("streaming-ensemble", cfg, s2, u, np.broadcast_to(scale, (N,)),
                         realize, horizon=N, law=cfg.law, carrier=f"paths={P}",
                         knob="the variance")


def _intersect_projections(projs: Sequence[Projection], dim: int,
                           diagonal: bool = False) -> Projection:
    """Projection onto the common range, via the kernel of the deficiency sum."""
    if not projs:
        return Projection(np.ones(dim) if diagonal else np.eye(dim), diagonal=diagonal)
    deficiency = sum(p.complement() for p in projs)
    cut = 1e-10 * (1.0 + len(projs))
    return op.spectral_projection(op.symmetrize(deficiency), -math.inf, cut)


def _run_dense(cfg: LILRunConfig) -> TailReport:
    """Exceptional sets realized as certificate projections, e their intersection."""
    pars, model = cfg.params, cfg.model
    horizon = min(cfg.horizon, model.n)
    generate = {"tensor": gen_tensor_martingale, "model": gen_model_martingale}[cfg.generator]
    path = generate(model, bound_seq=np.full(horizon, cfg.bound_scale), seed=cfg.seed,
                    horizon=horizon)
    norm = np.sqrt(path.s2) * path.u

    def realize(rule: StoppingRule, used: list) -> _Realization:
        ks = rule.ks
        rs = [path.partial(m) * (1.0 / norm[m - 1]) for m in range(1, int(ks[-1]) + 1)]
        q_block, q_theory, block_projs = [], [], {}
        for n in range(1, rule.blocks + 1):
            family = [rs[m - 1] for m in rule.block_steps(n)]
            qb = qt = 0.0
            if family:
                cb = column_maximal_norm_bounds(family, p=4.0)
                pr = probc_upper(family, pars.threshold, cb.certificate)
                qb = pr.s
                block_projs[n] = pr.e
                end = int(ks[n + 1])
                prefix = [path.partial(j) for j in range(1, end + 1)]
                cb2 = column_maximal_norm_bounds(prefix, p=4.0)
                thr2 = pars.beta * (1.0 + pars.delta) * float(norm[end - 1])
                qt = probc_upper(prefix, thr2, cb2.certificate).s
            q_block.append(qb)
            q_theory.append(qt)

        e = _intersect_projections([block_projs[n] for n in used if n in block_projs],
                                   path.final.dim, diagonal=path.final.diagonal)
        used_steps = [m for n in used for m in rule.block_steps(n)]
        cp_steps = _checkpoint_steps(len(rs), min(cfg.checkpoints, len(rs)))
        cp_rs = [rs[int(m) - 1] for m in cp_steps]
        return _Realization(
            semantics="certificate", q_block=q_block, q_theory=q_theory, e=e,
            deficit=float(1.0 - e.trace), levels=path.s2[np.array(used_steps, dtype=np.int64) - 1],
            kept_sup=np.array([op.lp_norm(rs[m - 1] @ e, np.inf) for m in used_steps]),
            cp_steps=cp_steps, cp_stats={
                "r_max_all": [op.lp_norm(r, np.inf) for r in cp_rs],
                "r_max_kept": [op.lp_norm(r @ e, np.inf) for r in cp_rs],
                "r_mean_kept": [op.lp_norm(r @ e, 1.0) for r in cp_rs]})

    return _block_report("dense-certificate", cfg, path.s2, path.u, path.dnorm, realize,
                         horizon=horizon, law=f"{cfg.generator}-generator",
                         carrier=f"model={model.kind}:m={model.m}:n={model.n}",
                         knob="bound_scale")


@dataclass
class BaselineConfig:
    paths: int = 4096
    horizon: int = 1_000_000
    law: str = "rademacher"
    seed: int = 0
    chunk: int = 4096

    def __post_init__(self):
        if self.paths < 2 or self.paths % 2:
            raise ConfigError("paths must be even and >= 2")
        if self.horizon < 10:
            raise ConfigError("horizon must be >= 10")
        if self.law not in ("rademacher", "uniform", "alternating"):
            raise ConfigError(f"unsupported baseline law {self.law!r}")
        if self.chunk < 1:
            raise ConfigError("chunk must be >= 1")

    def to_json(self) -> dict:
        return {"paths": self.paths, "horizon": self.horizon, "law": self.law,
                "seed": self.seed, "chunk": self.chunk}


@dataclass
class BaselineReport:
    """Last-decade running maximum of |S_n|/sqrt(n L(n)) per path."""

    config: BaselineConfig
    median: float
    q10: float
    q90: float
    q99: float
    frac_above_2: float
    window: tuple
    preasymptotic: bool
    per_path: np.ndarray
    runtime_seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "median": self.median, "q10": self.q10, "q90": self.q90, "q99": self.q99,
            "frac_above_2": self.frac_above_2,
            "window": list(self.window), "preasymptotic": self.preasymptotic,
        }


def scalar_kolmogorov_baseline(cfg: BaselineConfig) -> BaselineReport:
    """Classical random-walk calibration of the normalized statistic.

    Tracks max over the last decade (horizon/10, horizon] of
    |S_n|/sqrt(n L(n)) for each of P unit-variance paths.  At desk
    horizons the median sits well below the asymptotic constant sqrt(2)
    and the mass above 2 is small; horizons under 1e5 are flagged as
    pre-asymptotic rather than rejected.
    """
    start = time.perf_counter()
    N, P = cfg.horizon, cfg.paths
    lo = N // 10
    rng = stream_rng(cfg.seed, label=f"baseline-{cfg.law}")
    scale = 1.0 if cfg.law == "rademacher" else math.sqrt(3.0)

    def draw(pos: int, take: int) -> np.ndarray:
        if cfg.law == "alternating":
            steps = np.where((np.arange(pos + 1, pos + take + 1) % 2) == 1, 1.0, -1.0)
            return np.repeat(steps[:, None], P, axis=1)
        return sample_step_increments(rng, cfg.law, scale, P, steps=take)

    runmax = np.zeros(P)
    for pos, C in _walk(draw, P, N, cfg.chunk):
        take = C.shape[1]
        if pos + take > lo:
            first = max(lo + 1, pos + 1)
            ns = np.arange(first, pos + take + 1, dtype=np.float64)
            seg = np.abs(C[:, first - pos - 1:]) / np.sqrt(ns * iterlog_seq(ns))[None, :]
            np.maximum(runmax, seg.max(axis=1), out=runmax)
    q10, med, q90, q99 = np.quantile(runmax, [0.10, 0.50, 0.90, 0.99])
    return BaselineReport(
        config=cfg, median=float(med), q10=float(q10), q90=float(q90), q99=float(q99),
        frac_above_2=float(np.mean(runmax > 2.0)), window=(lo + 1, N),
        preasymptotic=bool(N < 100_000), per_path=runmax,
        runtime_seconds=time.perf_counter() - start)


def semicircle_cdf(x) -> np.ndarray:
    """Distribution function of the standard semicircle law on [-2, 2]."""
    x = np.clip(np.asarray(x, dtype=np.float64), -2.0, 2.0)
    return 0.5 + (x * np.sqrt(4.0 - x * x) / 4.0 + np.arcsin(x / 2.0)) / math.pi


def ks_distance(values: np.ndarray, cdf) -> float:
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = len(v)
    f = cdf(v)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


@dataclass
class SemicircleConfig:
    size: int = 200
    steps: int = 10_000
    checkpoints: tuple = (100, 1000, 10_000)
    seed: int = 0

    def __post_init__(self):
        if self.size < 50:
            raise ConfigError("matrix size must be >= 50")
        if self.steps < max(self.checkpoints):
            raise ConfigError("steps must reach the last checkpoint")
        if any(c < 1 for c in self.checkpoints) or list(self.checkpoints) != sorted(set(self.checkpoints)):
            raise ConfigError("checkpoints must be increasing positive integers")

    def to_json(self) -> dict:
        return {"size": self.size, "steps": self.steps,
                "checkpoints": list(self.checkpoints), "seed": self.seed}


@dataclass
class TrendReport:
    config: SemicircleConfig
    rows: list                  # per checkpoint: n, stat, ks, edge
    trend_ok: bool
    ks_first: float
    runtime_seconds: float = 0.0

    def to_json(self) -> dict:
        return {"config": self.config.to_json(), "rows": self.rows,
                "trend_ok": self.trend_ok, "ks_first": self.ks_first}


def semicircular_demo(cfg: SemicircleConfig) -> TrendReport:
    """Sums of independent standardized matrix increments against the edge.

    At each checkpoint n the accumulated sum is normalized by sqrt(n); its
    spectrum is compared to the semicircle law (KS distance) and the
    statistic ||sum||/sqrt(n L(n)) is recorded.  Because the spectral edge
    of the normalized sum converges to 2 while L(n) keeps growing, the
    statistic must drift down as n grows; trend_ok records that the last
    checkpoint sits strictly below the first.
    """
    start = time.perf_counter()
    rng = stream_rng(cfg.seed, label=f"semicircle-{cfg.size}")
    acc = np.zeros((cfg.size, cfg.size), dtype=np.complex128)
    rows = []
    cps = set(cfg.checkpoints)
    for n in range(1, cfg.steps + 1):
        acc += gue_matrix(rng, cfg.size)
        if n in cps:
            normalized = acc / math.sqrt(n)
            eig = np.linalg.eigvalsh(normalized)
            edge = float(np.max(np.abs(eig)))
            stat = edge / math.sqrt(iterlog(float(n)))
            rows.append({"n": n, "stat": stat, "ks": ks_distance(eig, semicircle_cdf),
                         "edge": edge})
    trend_ok = bool(rows[-1]["stat"] < rows[0]["stat"])
    return TrendReport(config=cfg, rows=rows, trend_ok=trend_ok,
                       ks_first=float(rows[0]["ks"]),
                       runtime_seconds=time.perf_counter() - start)
