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
whose last-decade running maximum calibrates where the desk scale sits
relative to the asymptotic constant, and a semicircular sum demo showing
the normalized statistic drifting down toward the free-probability edge.

The streaming engine and the scalar baseline sum the chunks of iid atoms
that ``martingales._atom_chunks`` draws into one cache-sized tile of
``_STREAM_TILE`` entries with one walker, ``_walk``, and consume it with
one kernel, ``_consume``.  A walk sums its law's integer atoms exactly; the
kernel compares |S| with the normalizer over the law's unit, and forms
floats only for the paths whose running max can move, gathered in batches
into one work buffer per walk.  Neither engine holds an array as long as
the horizon: the bracket is a closed form read where it is needed, and the
normalizers come one window of ``_NORM_WINDOW`` steps at a time.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import martingales
from . import operators as op
from .errors import ConfigError, InsufficientHorizonError
from .filtration import AlgebraModel
from .inequalities import (BlockBound, block_tail_bound,
                           column_maximal_norm_bounds, probc_upper)
from .martingales import (_STEP_LAWS, BracketProfile, LinearBracket, StoppingRule,
                          _atom_chunks, _step_bound, gen_model_martingale,
                          gen_tensor_martingale, gue_matrix, iterlog, iterlog_seq,
                          stopping_indices)
from .martingales import sample_step_increments  # noqa: F401  (name read by perfbench's tracer test)
from .operators import Projection
from .rng import stream_rng
from .tolerances import BC_TOLERANCES, KERNEL_CUT, ROUND_ABS, ROUND_REL


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
        try:
            exponent = self.series_exponent
        except OverflowError:
            raise ConfigError("beta^2(1+delta)^2/(4(1+eps)) overflows a float; "
                              "shrink beta or delta") from None
        if exponent <= 1.0:
            raise ConfigError(
                f"beta^2(1+delta)^2/(4(1+eps)) = {exponent:.6g} <= 1: "
                "the block series cannot converge")
        if not math.isfinite(self.threshold):
            raise ConfigError("threshold beta(1+delta_prime) overflows a float")

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
        return self.transfer_constant <= self.threshold * (1.0 + ROUND_REL)

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
    bc: dict
    e: Projection
    gates_waived: bool = False
    checkpoints: dict = field(default_factory=dict)
    blas_threads: int | None = None     # 1, or None where OpenBLAS could not be pinned
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
            "empirical_limsup": self.empirical_limsup,
            "limsup_windows": self.limsup_windows,
            "series_theory_terms": list(self.series_theory_terms),
            "series_theory_cumulative": list(self.series_theory_cumulative),
            "series_theory_total": self.series_theory_total,
            "bc": self.bc,
            "gates_waived": self.gates_waived,
            "blas_threads": self.blas_threads,
        }


def _require_int64_walk(law: str, horizon: int) -> None:
    """Reject a horizon whose partial sums, up to atom_max * horizon in the
    law's integer atoms, would not fit in int64, the widest integer a walk and
    its bracket search count in, or whose steps float64 does not hold exactly
    (2^53 and beyond), as the bracket ``LinearBracket`` takes them."""
    limit = min(2 ** 53, -(-2 ** 63 // _STEP_LAWS[law][1]))    # the least horizon refused
    if horizon >= limit:
        raise ConfigError(f"horizon must be < {limit} for the {law} law, got {horizon}")


@dataclass
class LILRunConfig:
    """One experiment: parameters plus a carrier.

    With ``model`` unset the experiment streams a classical path ensemble
    (law/variance/paths); with a model it builds a dense martingale and
    runs the certificate route, which only makes sense at small horizons.
    ``progress`` reports the streaming walk on stderr (``_with_progress``);
    the dense route, at most model.n steps, ignores it.
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
    progress: bool = False

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.model is None:
            if self.paths < 1:
                raise ConfigError("paths must be >= 1")
            _step_bound(self.law, self.variance)      # rejects the law or the variance
            _require_int64_walk(self.law, self.horizon)
        if self.generator not in ("tensor", "model"):
            raise ConfigError(f"unknown dense generator {self.generator!r}")
        try:                    # ** 2 past the float range raises, as does such a horizon
            squares = (self.bound_scale ** 2, (self.horizon * self.bound_scale) ** 2)
        except OverflowError:
            squares = (math.inf,)
        if not all(sys.float_info.min <= v < math.inf for v in squares):
            raise ConfigError("bound_scale^2 and (horizon * bound_scale)^2 must be normal floats")
        if self.checkpoints < 2:
            raise ConfigError("need at least two checkpoints")
        if not 0 < self.window_decades <= 308:     # 10**window_decades must be a float
            raise ConfigError(f"window_decades must lie in (0, 308], got {self.window_decades:g}")


def run_lil_experiment(cfg: LILRunConfig) -> TailReport:
    """Run one experiment on one BLAS thread, whatever the caller's setting.

    The pin keeps the dense engine's outputs independent of the thread
    count; the streaming engine makes no BLAS call, so it costs that
    engine nothing.
    """
    start = time.perf_counter()
    with op._one_blas_thread() as threads:
        report = (_run_streaming if cfg.model is None else _run_dense)(cfg)
    report.blas_threads = threads
    report.runtime_seconds = time.perf_counter() - start
    return report


def _walk(chunks: Iterator[tuple], paths: int) -> Iterator[tuple]:
    """Partial sums of an ensemble walk, steps-major, chunk by chunk.

    ``chunks`` yields (pos, block), block[j] the increments of step pos+j+1
    (``_atom_chunks``).  Yields (pos, S, P): S the float64 sums S_pos carried
    from earlier chunks, P the block itself summed in place along axis 0, so
    S_{pos+j+1} = S + P[j]; the carry is added only where a consumer needs a
    value.  The chunker's dtype holds a chunk's sums, so the partials are
    exact and do not depend on the chunk.  S and P are views the walk
    reuses: valid until it resumes, and not to be written by the consumer.
    """
    S = np.zeros(paths)
    for pos, P in chunks:
        # Row by row: np.cumsum along axis 0 strides across rows and is about
        # 15x slower at 4096 paths; both add in the same order.
        for prev, row in zip(P, P[1:]):
            np.add(row, prev, row)
        yield pos, S, P
        S += P[-1]


def _with_progress(walk: Iterator[tuple], total: int, label: str) -> Iterator[tuple]:
    """The chunks of ``walk``, passed through, with a progress line on stderr.

    After a chunk is consumed, at most once a second by ``time.monotonic``,
    prints the steps done out of ``total``, the steps per second since the
    start and the time left at that rate.  The chunks and what the consumer
    does with them are untouched; a run without progress does not wrap its
    walk at all.
    """
    start = last = time.monotonic()
    for pos, S, P in walk:
        done = pos + len(P)
        yield pos, S, P
        now = time.monotonic()
        if now - last >= 1.0:
            rate = done / (now - start)
            print(f"{label}: {done}/{total} steps, {rate:.0f} steps/s, "
                  f"ETA {(total - done) / rate:.0f} s", file=sys.stderr, flush=True)
            last = now


# Steps per window of the walk's normalizers: 64 KiB of floats, four chunks
# at 64 paths and 256 at 4096.
_NORM_WINDOW = 1 << 13


def _windowed(norms: Callable[[int, int], np.ndarray], end: int) -> Callable:
    """``norms(a, b)``, the normalizers of steps a+1 .. b, served from one window.

    A consumer asks for ranges in step order.  A range the window does not
    hold starts a new window at its first step, of _NORM_WINDOW steps cut at
    step ``end``, or of the whole range when one chunk asks for more (65536
    steps at 2 paths).  Each normalizer depends on its own step only, so
    the values are those of the whole-horizon array, bit for bit.  The
    slices returned are views of the window, valid until the next call.
    """
    lo = hi = 0
    vals = np.empty(0)

    def window(a: int, b: int) -> np.ndarray:
        nonlocal lo, hi, vals
        if not lo <= a <= b <= hi:
            lo, hi = a, max(b, min(end, a + _NORM_WINDOW))
            vals = norms(lo, hi)
        return vals[a - lo:b - lo]
    return window


def _abs_top(S: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Column max of |S + P[j]| over the rows j of a walk chunk, in float64.

    Correctly rounded addition is monotone, so max_j (S + P[j]) is S plus
    the column max of P and min_j (S + P[j]) is S plus its column min; the
    result equals taking |S + P[j]| of every row and then the max, bit for
    bit, with no float block formed.
    """
    top = S + P.max(axis=0)
    low = S + P.min(axis=0)
    np.negative(low, out=low)
    return np.maximum(top, low, out=top)


def _work_buffer(paths: int) -> np.ndarray:
    """_consume's work buffer: a quarter tile, at least a chunk column, its S and best."""
    tile = martingales._STREAM_TILE                 # the chunker's tile, read as it draws
    return np.empty(max(tile // 4, tile // paths + 2))


def _max_normalized(S: np.ndarray, P: np.ndarray, top: np.ndarray, den: np.ndarray,
                    best: np.ndarray, work: np.ndarray) -> int:
    """best <- max(best, max_k |S + P[k]| / den[k]) per column, in place; returns
    the number of columns divided.

    P is a (k, paths) block of a walk chunk's partial sums after the carried
    sums S, top = _abs_top(S, P) and den the k positive normalizers.
    Correctly rounded division is monotone in both arguments, so a column
    with top / min(den) <= best holds no quotient above best and is left
    alone; the result equals a divide-then-max of the whole block bit for
    bit.  Only flagged columns become floats, gathered in batches into the
    float64 ``work`` buffer at k + 2 entries a column (P's k, S, best).
    """
    hit = np.flatnonzero(top / den.min() > best)
    k = len(den)
    batch = len(work) // (k + 2)
    for i in range(0, len(hit), batch):
        ix = hit[i:i + batch]
        w = work[:(k + 2) * len(ix)].reshape(k + 2, -1)
        q, s, b = w[:k], S.take(ix, out=w[k]), best.take(ix, out=w[k + 1])
        np.add(P.take(ix, axis=1), s, out=q)
        np.abs(q, out=q)
        q /= den[:, None]
        best[ix] = np.maximum(q.max(axis=0, out=s), b, out=s)
    return len(hit)


def _consume(walk: Iterator[tuple], paths: int, ends: Sequence, norms: Callable,
             cp_steps: np.ndarray, dtype) -> tuple:
    """The per-path tables of one pass over a walk: (normmax, absmax, cp_abs, divided).

    Section i is steps ends[i]+1 .. ends[i+1], possibly none; steps up to
    ends[0] are walked, not consumed.  normmax[i] is the max of |S_k| over
    its normalizer in section i (-inf if empty), absmax[i] the running max
    of |S_k| up to ends[i+1], cp_abs[:, j] |S_m| at m = cp_steps[j]; the
    last two are integers of ``dtype``, which must hold atom_max * ends[-1].
    ``divided`` counts the columns _max_normalized divided.  Each entry
    depends on its own path only, so a column range of the walk gives those
    columns of the tables, bit for bit.
    """
    ends, cps = np.asarray(ends).tolist(), np.asarray(cp_steps).tolist()
    normmax = np.full((len(ends) - 1, paths), -np.inf)
    absmax = np.empty((len(ends) - 1, paths), dtype)
    cp_abs = np.empty((paths, len(cps)), dtype)
    prefix, absS, work = np.zeros(paths), np.empty(paths), _work_buffer(paths)
    sec = cp = divided = 0
    for pos, S, part in walk:
        end = pos + len(part)
        while cp < len(cps) and cps[cp] <= end:
            np.add(S, part[cps[cp] - pos - 1], out=absS)
            cp_abs[:, cp] = np.abs(absS, out=absS)
            cp += 1
        while sec < len(normmax):
            a, b = max(ends[sec], pos), min(ends[sec + 1], end)
            if b > a:
                rows = part[a - pos:b - pos]
                top = _abs_top(S, rows)
                np.maximum(prefix, top, out=prefix)
                divided += _max_normalized(S, rows, top, norms(a, b), normmax[sec], work)
            if ends[sec + 1] > end:
                break
            absmax[sec] = prefix
            sec += 1
    return normmax, absmax, cp_abs, divided


def _checkpoint_steps(total: int, count: int) -> np.ndarray:
    """Up to ``count`` log-spaced steps in 1..total.  A count above ``total`` is
    cut to ``total``, so the grid is never formed longer than the walk."""
    count = min(count, total)
    grid = np.unique(np.round(np.logspace(0.0, math.log10(total), count)).astype(np.int64))
    return grid[(grid >= 1) & (grid <= total)]


def _checkpoint_stats(cp_abs: np.ndarray, den: np.ndarray, kept: np.ndarray) -> dict:
    """r_max_all, r_max_kept and r_mean_kept of r = |S_m| / den[m] per checkpoint m.

    cp_abs is the (paths x checkpoints) table of the integers |S_m|, reduced
    as integers: each column has one divisor and correctly rounded division
    is monotone, so a column max divided once is the max of the quotients,
    bit for bit; the mean is the exact int64 sum over the kept paths divided
    by their count and by den.  No float table is formed.  With no path kept
    the two kept statistics are NaN.
    """
    count = np.count_nonzero(kept)
    max_all = cp_abs.max(axis=0) / den
    if count:
        max_kept = cp_abs.max(axis=0, where=kept[:, None], initial=0) / den
        mean_kept = cp_abs.sum(axis=0, dtype=np.int64, where=kept[:, None]) / count / den
    else:
        max_kept = mean_kept = np.full(len(den), np.nan)
    return {"r_max_all": max_all.tolist(), "r_max_kept": max_kept.tolist(),
            "r_mean_kept": mean_kept.tolist()}


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


def _bc_checks(deficit: float, union: float, limsup: float, thr: float,
               theory_total: float, tol: tuple) -> dict:
    """Summability wiring: which implications hold on this run."""
    union_slack, limsup_abs, limsup_rel = tol
    union_ok = deficit <= union + union_slack
    limsup_ok = (not math.isfinite(limsup)) or limsup <= thr * (1.0 + limsup_rel) + limsup_abs
    certifies = theory_total < 1.0        # only then does theory say anything
    implied_ok = (not certifies) or deficit <= theory_total + ROUND_ABS
    return {
        "union_bound_ok": bool(union_ok),
        "limsup_below_threshold_ok": bool(limsup_ok),
        "theory_total_certifies": bool(certifies),
        "theory_implies_deficit_ok": bool(implied_ok),
        "ok": bool(union_ok and limsup_ok and implied_ok),
    }


def _block_report(engine: str, cfg: LILRunConfig, profile: BracketProfile,
                  realize: Callable, law: str, carrier: str, knob: str) -> TailReport:
    """Block decomposition of one run around an engine's realization.

    Blocks run between the eta-adic stopping times of the bracket profile,
    which is read only at block ends and starts and at the checkpoints.
    The used blocks start at n0 = max(n1, n2), n1 and n2 being the
    first blocks from which the ratio and alpha gates hold onward; with no
    such block a strict run fails, otherwise all blocks are used with the
    gates waived.  ``realize(rule, used)`` realizes their exceptional sets.
    """
    pars = cfg.params
    thr = pars.threshold
    rule = stopping_indices(profile, pars.eta)
    B, ks = rule.blocks, rule.ks
    if B < 1:
        raise InsufficientHorizonError(
            f"horizon {profile.horizon} holds no complete block at eta = {pars.eta}")
    if int(ks[2:].min()) < 1:
        raise ConfigError(f"one step crosses several thresholds; shrink {knob}")
    ends = ks[2:]                                  # step k_{n+1} of block n = 1..B
    s2_end, u_end = profile.s2(ends), profile.u(ends)
    alpha_end = profile.dnorm(ends) * u_end / np.sqrt(s2_end)
    u_start = profile.u(ks[1:-1] + 1)              # step k_n + 1 of block n
    bounds = [block_tail_bound(n, pars.eta, pars.delta, pars.eps, pars.beta,
                               alpha_next=float(alpha_end[n - 1])) for n in range(1, B + 1)]

    ratio_floor = 1.0 - pars.eps_prime_resolved
    # onset = one past the last block (index i, so block i + 1) that fails the gate
    n1 = int(np.flatnonzero(u_start / u_end < ratio_floor).max(initial=-1)) + 2
    n2 = max((b.n for b in bounds if not b.gate_alpha), default=0) + 1
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
        u_end=float(u_end[n - 1]), alpha_end=float(alpha_end[n - 1]), bound=bounds[n - 1],
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
    bc = _bc_checks(real.deficit, union, limsup, thr, theory_total, BC_TOLERANCES[engine])
    cp = real.cp_steps
    cps = {"m": cp.tolist(), "s2": profile.s2(cp).tolist(), "u": profile.u(cp).tolist(),
           **real.cp_stats}

    return TailReport(
        engine=engine, params=pars, horizon=profile.horizon, seed=cfg.seed, law=law,
        carrier=carrier, threshold=thr, n0=n0, n1=n1, n2=n2, blocks=rows,
        used_blocks=used, deficit=real.deficit, union_bound=union,
        empirical_limsup=limsup, limsup_windows=windows,
        series_theory_terms=terms, series_theory_cumulative=cumulative,
        series_theory_total=theory_total, bc=bc, e=real.e, gates_waived=gates_waived,
        checkpoints=cps)


def _run_streaming(cfg: LILRunConfig) -> TailReport:
    """Exceptional sets realized per path: e keeps the paths that never exceed.

    The bracket is the closed form s^2_n = v n (``LinearBracket``), read at
    block ends and checkpoints.  The walk sums integer atoms, so every
    normalizer it meets is divided by the unit (exactly, at unit 1.0), one
    window of _NORM_WINDOW steps at a time.  One ``_consume`` pass with the
    blocks as its sections gives the per-path tables; the realization only
    reduces them across paths.
    """
    pars = cfg.params
    N, P = cfg.horizon, cfg.paths
    bound, unit = _step_bound(cfg.law, cfg.variance)
    profile = LinearBracket(cfg.variance, N, bound)
    rng = stream_rng(cfg.seed, label=f"lil-stream-{cfg.law}")

    def realize(rule: StoppingRule, used: list) -> _Realization:
        ks = rule.ks
        total = int(ks[-1])                        # stream only through the last boundary
        norms = _windowed(lambda a, b: profile.norm_range(a, b) / unit, total)
        cp_steps = _checkpoint_steps(total, cfg.checkpoints)
        walk = _walk(_atom_chunks(rng, cfg.law, P, total), P)
        # section n = block n; its theory event is its absmax against a threshold
        blockmax, absmax, cp_abs, _ = _consume(
            _with_progress(walk, total, "lil-run") if cfg.progress else walk, P, ks, norms,
            cp_steps, np.min_scalar_type(_STEP_LAWS[cfg.law][1] * total))
        theory_thr = pars.beta * (1.0 + pars.delta) * profile.norm(ks[2:]) / unit
        exceed_theory = absmax[1:] > theory_thr[:, None]
        exceed = blockmax[1:] > pars.threshold            # rows: block n = 1..B
        used_ix = np.asarray(used)
        bad = exceed[used_ix - 1].any(axis=0)
        kept = ~bad
        return _Realization(
            semantics="empirical", q_block=exceed.mean(axis=1),
            q_theory=exceed_theory.mean(axis=1),
            e=Projection(kept.astype(np.float64), diagonal=True), deficit=float(bad.mean()),
            levels=profile.s2(ks[used_ix + 1]),
            kept_sup=blockmax[used_ix][:, kept].max(axis=1, initial=-np.inf),
            cp_steps=cp_steps,
            cp_stats=_checkpoint_stats(cp_abs, profile.norm(cp_steps) / unit, kept))

    return _block_report("streaming-ensemble", cfg, profile, realize, law=cfg.law,
                         carrier=f"paths={P}", knob="the variance")


def _intersect_projections(projs: Sequence[Projection], model: AlgebraModel) -> Projection:
    """Projection onto the common range, via the kernel of the deficiency sum."""
    if not projs:
        if model.kind == "diagonal":
            return Projection(np.ones(model.dim), diagonal=True)
        return Projection(np.eye(1), mult=model.dim, layout=model.kind)
    deficiency = sum(p.complement() for p in projs)
    cut = KERNEL_CUT * (1.0 + len(projs))
    return op.spectral_projection(op.symmetrize(deficiency), -math.inf, cut)


def _run_dense(cfg: LILRunConfig) -> TailReport:
    """Exceptional sets realized as certificate projections, e their intersection."""
    pars, model = cfg.params, cfg.model
    horizon = min(cfg.horizon, model.n)
    generate = {"tensor": gen_tensor_martingale, "model": gen_model_martingale}[cfg.generator]
    path = generate(model, bound_seq=np.full(horizon, cfg.bound_scale), seed=cfg.seed,
                    horizon=horizon)
    profile = BracketProfile(path.s2, path.u, path.dnorm)

    def realize(rule: StoppingRule, used: list) -> _Realization:
        ks = rule.ks
        norm = profile.norm_range(0, int(ks[-1]))
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

        e = _intersect_projections([block_projs[n] for n in used if n in block_projs], model)
        used_steps = [m for n in used for m in rule.block_steps(n)]
        cp_steps = _checkpoint_steps(len(rs), cfg.checkpoints)
        cp_rs = [rs[int(m) - 1] for m in cp_steps]
        return _Realization(
            semantics="certificate", q_block=q_block, q_theory=q_theory, e=e,
            deficit=float(1.0 - e.trace), levels=profile.s2(np.array(used_steps, dtype=np.int64)),
            kept_sup=np.array([op.lp_norm(rs[m - 1] @ e, np.inf) for m in used_steps]),
            cp_steps=cp_steps, cp_stats={
                "r_max_all": [op.lp_norm(r, np.inf) for r in cp_rs],
                "r_max_kept": [op.lp_norm(r @ e, np.inf) for r in cp_rs],
                "r_mean_kept": [op.lp_norm(r @ e, 1.0) for r in cp_rs]})

    return _block_report("dense-certificate", cfg, profile, realize,
                         law=f"{cfg.generator}-generator",
                         carrier=f"model={model.kind}:m={model.m}:n={model.n}",
                         knob="bound_scale")


@dataclass
class BaselineConfig:
    paths: int = 4096
    horizon: int = 1_000_000
    law: str = "rademacher"
    seed: int = 0
    progress: bool = False          # walk progress on stderr; not part of the outputs

    def __post_init__(self):
        if self.paths < 1:
            raise ConfigError("paths must be >= 1")
        if self.horizon < 10:
            raise ConfigError("horizon must be >= 10")
        _step_bound(self.law, 1.0)      # rejects a law outside the table
        _require_int64_walk(self.law, self.horizon)

    def to_json(self) -> dict:
        return {"paths": self.paths, "horizon": self.horizon, "law": self.law,
                "seed": self.seed}


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


def _baseline_den(a: int, b: int) -> np.ndarray:
    """sqrt(n L(n)) of steps a+1 .. b, the baseline's normalizer.

    It rounds differently from the streaming bracket's sqrt(s^2) u at unit
    variance, so each keeps its own expression.
    """
    ns = np.arange(a + 1, b + 1, dtype=np.float64)
    return np.sqrt(ns * iterlog_seq(ns))


def scalar_kolmogorov_baseline(cfg: BaselineConfig) -> BaselineReport:
    """Classical random-walk calibration of the normalized statistic.

    Tracks max over the last decade (horizon/10, horizon] of
    |S_n|/sqrt(n L(n)) for each of P unit-variance paths.  At desk
    horizons the median sits well below the asymptotic constant sqrt(2)
    and the mass above 2 is small; horizons under 1e5 are flagged as
    pre-asymptotic rather than rejected.  The normalizers, over the law's
    unit, are computed one window of _NORM_WINDOW steps at a time.  The walk
    is one ``_consume`` pass whose one section is that decade, so besides
    the walk's tile and the kernel's work buffer the run holds O(paths)
    numbers whatever the horizon.
    """
    start = time.perf_counter()
    N, P = cfg.horizon, cfg.paths
    lo = N // 10
    unit = _step_bound(cfg.law, 1.0)[1]
    rng = stream_rng(cfg.seed, label=f"baseline-{cfg.law}")
    den = _windowed(lambda a, b: _baseline_den(a, b) / unit, N)
    walk = _walk(_atom_chunks(rng, cfg.law, P, N), P)
    runmax = _consume(_with_progress(walk, N, "baseline-scalar") if cfg.progress else walk,
                      P, (lo, N), den, (), np.min_scalar_type(_STEP_LAWS[cfg.law][1] * N))[0][0]
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
    checkpoints: tuple = (100, 1000, 10_000)
    seed: int = 0

    def __post_init__(self):
        if self.size < 50:
            raise ConfigError("matrix size must be >= 50")
        cps = list(self.checkpoints)
        if len(cps) < 2:            # the trend compares the first checkpoint with the last
            raise ConfigError("need at least two checkpoints")
        if cps[0] < 1 or cps != sorted(set(cps)):
            raise ConfigError("checkpoints must be increasing positive integers")

    def to_json(self) -> dict:
        return {"size": self.size, "checkpoints": list(self.checkpoints), "seed": self.seed}


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
    checkpoint sits strictly below the first.  A sum of k independent
    standardized GUE matrices has the law of sqrt(k) times one, so the sum
    moves from one checkpoint to the next by a single scaled draw.
    """
    start = time.perf_counter()
    rng = stream_rng(cfg.seed, label=f"semicircle-{cfg.size}")
    acc = np.zeros((cfg.size, cfg.size), dtype=np.complex128)
    rows = []
    prev = 0
    for n in cfg.checkpoints:
        acc += math.sqrt(n - prev) * gue_matrix(rng, cfg.size)
        prev = n
        eig = np.linalg.eigvalsh(acc / math.sqrt(n))
        edge = float(np.max(np.abs(eig)))
        stat = edge / math.sqrt(iterlog(float(n)))
        rows.append({"n": n, "stat": stat, "ks": ks_distance(eig, semicircle_cdf),
                     "edge": edge})
    trend_ok = bool(rows[-1]["stat"] < rows[0]["stat"])
    return TrendReport(config=cfg, rows=rows, trend_ok=trend_ok,
                       ks_first=float(rows[0]["ks"]),
                       runtime_seconds=time.perf_counter() - start)
