"""Tail and moment inequalities for matrix martingales.

Every checker reports both sides of its inequality plus the hypothesis
diagnostics, so a failed run distinguishes "hypothesis violated" from
"bound violated".  Bounds that rest on a positive-operator certificate
(column maximal norms, constructive Chebyshev) return the certificate so
callers can re-verify domination independently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import operators as op
from .errors import ConfigError, HypothesisViolation, NclilError, ShapeError
from .filtration import AlgebraModel, conditional_expectation
from .martingales import MD_RESIDUAL_TOL, MartingalePath
from .operators import Operator

CENTER_TOL = 1e-9       # hypothesis i: |tau(x_n)|
BRACKET_TOL = 1e-9      # hypothesis iii: negative part allowed in D^2 - bracket
HOLD_TOL = 1e-10        # slack on log-scale inequality comparisons
FEAS_TOL = 1e-8         # certificate domination slack
REPAIR_GAP_TOL = 1e-12  # a repair round ends once every domination gap is above -this
ENCLOSURE_REL_TOL = 1e-8   # relative slack of lower <= upper in the column-norm enclosure
ENCLOSURE_ABS_TOL = 1e-12  # absolute slack of the same comparison
_EXP_CAP = 700.0        # beyond this, report inf and keep the log form
_FEAS_ROUNDS = 60       # repair rounds of one feasibilization
_SEARCH_ITERS = 500     # shrink-and-repair steps of the column-norm search
_SHRINK = 0.9           # factor of one shrink step
_SEARCH_REL_TOL = 1e-6  # relative objective gain below which the search stops


def _log_mean_exp(values: np.ndarray, weights_log: float) -> float:
    top = float(np.max(values))
    return top + math.log(float(np.mean(np.exp(values - top)))) + weights_log


@dataclass(frozen=True)
class ExpIneqParams:
    """Scale data for the exponential moment bound.

    M bounds every difference norm, D2 dominates the final bracket, eps
    sets the Taylor slack, and lam is the tilt.  The tilt must stay in
    [0, sqrt(eps)/(M(1+eps))]; outside it the quadratic comparison that
    drives the bound is simply false, so construction fails fast.
    """

    M: float
    D2: float
    eps: float
    lam: float

    def __post_init__(self):
        if self.M <= 0 or self.D2 <= 0:
            raise ConfigError("M and D2 must be positive")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")
        cap = self.admissible_max
        if not -1e-15 <= self.lam <= cap * (1.0 + 1e-12) + 1e-300:
            raise HypothesisViolation(
                "lambda", f"tilt {self.lam} outside the admissible range [0, {cap}]")

    @property
    def admissible_max(self) -> float:
        return math.sqrt(self.eps) / (self.M * (1.0 + self.eps))


@dataclass(frozen=True)
class ExpMomentResult:
    log_lhs: float
    log_rhs: float
    lhs: float
    rhs: float
    holds: bool
    margin: float
    checks: dict


def _partial_values(path: MartingalePath, n: int) -> np.ndarray:
    """Spectral values of x_n: eigenvalues (dense) or per-path sums (ensemble).

    Cached on the path, since sweeps evaluate many tilts per martingale.
    """
    cache = path.meta.setdefault("_spectral_values", {})
    if n not in cache:
        x = path.partial(n)
        if x.diagonal:
            cache[n] = np.asarray(x.data, dtype=np.float64)
        else:
            cache[n] = op.eigenvalues(x)
    return cache[n]


def exp_moment_sides(path: MartingalePath, n: int, params: ExpIneqParams) -> ExpMomentResult:
    """Both sides of tau(exp(lam x_n)) <= exp((1+eps) lam^2 D2).

    Hypotheses are re-validated on the supplied path and reported by name:
    (i) tau(x_n) = 0, (ii) ||d_k|| <= M for k <= n, (iii) the bracket at n
    is dominated by D2.  Evaluation happens in log space, so the check
    stays meaningful when either side overflows a float.
    """
    if not 1 <= n <= path.horizon:
        raise ConfigError(f"step {n} outside 1..{path.horizon}")
    vals = _partial_values(path, n)
    center = abs(float(np.mean(vals)))
    if center > CENTER_TOL:
        raise HypothesisViolation("i", f"tau(x_n) = {center:.3e} is not zero")
    worst_d = float(np.max(path.dnorm[:n]))
    if worst_d > params.M * (1.0 + 1e-12):
        raise HypothesisViolation("ii", f"difference norm {worst_d} exceeds M = {params.M}")
    # the bracket is psd, so domination by D2*identity is exactly a
    # comparison of its top eigenvalue, which s2 already records
    bracket_gap = params.D2 - path.s2_of(n)
    if bracket_gap < -BRACKET_TOL * (1.0 + params.D2):
        raise HypothesisViolation("iii", f"bracket exceeds D2 by {-bracket_gap:.3e}")

    log_lhs = _log_mean_exp(params.lam * vals, 0.0)
    log_rhs = (1.0 + params.eps) * params.lam ** 2 * params.D2
    holds = log_lhs <= log_rhs + HOLD_TOL
    lhs = math.exp(log_lhs) if log_lhs < _EXP_CAP else math.inf
    rhs = math.exp(log_rhs) if log_rhs < _EXP_CAP else math.inf
    return ExpMomentResult(
        log_lhs=log_lhs, log_rhs=log_rhs, lhs=lhs, rhs=rhs, holds=bool(holds),
        margin=log_rhs - log_lhs,
        checks={"center": center, "max_dnorm": worst_d, "bracket_gap": float(bracket_gap)})


@dataclass(frozen=True)
class ColumnNormBounds:
    """Two-sided enclosure of the column maximal norm of a finite family.

    ``upper`` comes from a positive certificate a >= x_i* x_i via
    ||a||_{p/2}^{1/2}; ``certificate`` is a^{1/2}, so the factorization
    x_i = (x_i a^{-1/2}) a^{1/2} realizes the bound with contractive left
    factors.  ``lower`` is max_i ||x_i||_p, valid because a single column
    already embeds in the mixed norm.
    """

    lower: float
    upper: float
    certificate: Operator
    p: float
    iterations: int

    @property
    def gap_ratio(self) -> float:
        if self.upper == 0.0:
            return 1.0
        return self.lower / self.upper


def _screened_gaps(a: np.ndarray, cons: np.ndarray,
                   live: np.ndarray | None = None) -> np.ndarray:
    """Domination gap lambda_min(a - c_k) of each stacked constraint c_k.

    a is one raw block and cons the family's stack of them: (K, n) real
    when diagonal, where the gaps are exact row minima, else (K, d, d)
    complex; with ``live`` (indices into cons) only those constraints
    are screened, in that order.  A dense a - c_k is screened by a
    Cholesky factorization; where it succeeds, a - c_k is positive definite up to rounding, so
    its gap is at least about -d*eps*scale (eps the unit roundoff), far
    above -REPAIR_GAP_TOL and -FEAS_TOL, and is reported as +inf: it can
    neither be the worst violation nor fail a feasibility check.  The
    other gaps come from eigvalsh of 0.5*(x + x^H), as in op.eigenvalues,
    so each equals op.min_eigenvalue(a - c_k) bit for bit.
    """
    diff = cons.copy() if live is None else cons[live]    # the one temporary
    np.subtract(a, diff, out=diff)
    if diff.ndim == 2:
        return diff.min(axis=1)
    gaps = np.full(len(diff), np.inf)
    uncleared = [k for k, x in enumerate(diff) if not _cholesky_clears(x)]
    if uncleared:
        x = diff[uncleared]
        gaps[uncleared] = np.linalg.eigvalsh(0.5 * (x + x.conj().transpose(0, 2, 1)))[:, 0]
    return gaps


def _cholesky_clears(x: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return False
    return True


def _pos_part(x: np.ndarray) -> np.ndarray:
    """Positive part of a raw hermitian block, diagonal (a vector) or dense."""
    if x.ndim == 1:
        return np.clip(x, 0.0, None)
    w, u = op.hermitian_eigh(x)
    return (u * np.clip(w, 0.0, None)) @ u.conj().T


def _feasibilize(a: np.ndarray, cons: np.ndarray) -> tuple[np.ndarray, bool]:
    """Push the raw block a up by positive parts of its worst violation until it dominates.

    Returns (a, converged).  Convergence means every gap is above
    -REPAIR_GAP_TOL, which already passes _is_feasible; only an unconverged
    a needs that check.  A repair adds a positive term to a, so by Weyl's
    inequality no gap goes down: each round re-screens only the
    constraints the round before found violated.
    """
    live = np.arange(len(cons))
    for _ in range(_FEAS_ROUNDS):
        gaps = _screened_gaps(a, cons, live)
        worst = int(np.argmin(gaps))
        if gaps[worst] > -REPAIR_GAP_TOL:
            return a, True
        a = a + _pos_part(cons[live[worst]] - a)
        live = live[gaps <= -REPAIR_GAP_TOL]
    return a, False


def _is_feasible(a: np.ndarray, cons: np.ndarray, scale: float) -> bool:
    return bool(np.all(_screened_gaps(a, cons) >= -FEAS_TOL * (1.0 + scale)))


def _require_enclosure(lower: float, upper: float) -> None:
    if lower > upper * (1.0 + ENCLOSURE_REL_TOL) + ENCLOSURE_ABS_TOL:
        raise NclilError("certified lower bound exceeds certified upper bound")


class _Descent:
    """The shrink-and-repair descent of one family of lifted constraints.

    Nothing in it depends on p: the start candidates are the full sum and
    the feasibilized last constraint, and each start's iterates are
    a_{j+1} = feasibilize(_SHRINK a_j), kept while they stay certified
    feasible.  p only picks the start and the step where the search stops,
    so every p of one family walks the same chains, computed on demand.
    A chain that ends in None has met its first infeasible trial.

    The constraints are held as one stacked array of their stored blocks,
    and the search runs on raw blocks; each kept iterate is wrapped once
    in an Operator with the family's storage.
    """

    def __init__(self, key: tuple, cons: list, scale: float):
        self.key, self.scale = key, scale
        self.cons = np.stack([c.data for c in cons])
        like = cons[0]
        self.wrap = functools.partial(Operator, hermitian=True, diagonal=like.diagonal,
                                      mult=like.mult, layout=like.layout)
        self.starts = [self.wrap(functools.reduce(np.add, self.cons))]
        last, converged = _feasibilize(self.cons[-1], self.cons)
        if converged or _is_feasible(last, self.cons, scale):
            self.starts.append(self.wrap(last))
        self.chains = [[a] for a in self.starts]

    def iterate(self, start: int, j: int) -> Operator | None:
        """a_j of the given start, or None past its first infeasible trial."""
        chain = self.chains[start]
        while len(chain) <= j and chain[-1] is not None:
            trial, converged = _feasibilize(_SHRINK * chain[-1].data, self.cons)
            feasible = converged or _is_feasible(trial, self.cons, self.scale)
            chain.append(self.wrap(trial) if feasible else None)
        return chain[j] if j < len(chain) else None


_last_descent: _Descent | None = None   # one entry: the most recent family's descent


def _descent(unique: dict, scale: float) -> _Descent:
    """The memoized descent of the constraints unique (dedupe key -> constraint).

    The memo is keyed by exact content: the ordered dedupe keys, which hold
    each constraint's bytes, and scale.
    """
    global _last_descent
    key = (tuple(unique), scale)
    if _last_descent is None or _last_descent.key != key:
        _last_descent = _Descent(key, list(unique.values()), scale)
    return _last_descent


def column_maximal_norm_bounds(xs: Sequence[Operator], p: float) -> ColumnNormBounds:
    """Certified enclosure of || (x_i)_i ||_{L_p(l_inf)} for p >= 2.

    Upper bounds are searched over positive operators dominating every
    x_i* x_i: the full sum (always feasible) and a feasibilized version of
    the last column seed a shrink-and-repair descent that only ever steps
    to certified-feasible iterates, so the final upper bound never relies
    on the optimizer having converged.  The constraints x_i* x_i are lifted
    once to the family's largest common block, where the whole search runs.
    The descent does not depend on p, so calls on one family at several p
    share its iterates through a one-entry memo keyed by the constraints'
    exact content; every result equals that of a fresh search.
    """
    if len(xs) == 0:
        raise ConfigError("need at least one operator")
    p = float(p)
    if p < 2.0:
        raise ConfigError(f"p must be >= 2, got {p}")
    if len({x.dim for x in xs}) > 1:
        raise ShapeError(f"family mixes dimensions {sorted({x.dim for x in xs})}")
    squares = [op.abs_square(x) for x in xs]
    scale = max(op.lp_norm(c, np.inf) for c in squares)
    if len({c.diagonal for c in squares}) > 1:      # mixed storage: search dense
        squares = [Operator(c.dense_array(), hermitian=True) if c.diagonal else c
                   for c in squares]
    unique = {}                  # duplicated columns add no constraint
    for c in op.lift_common(squares):
        unique.setdefault((c.layout, c.mult, c.data.shape, c.data.tobytes()), c)
    descent = _descent(unique, scale)

    def objective(a: Operator) -> float:
        return op.lp_norm(a, p / 2.0) ** 0.5

    objs = [objective(a) for a in descent.starts]
    start = objs.index(min(objs))
    best, best_obj = descent.starts[start], objs[start]
    iters = 0
    for iters in range(1, _SEARCH_ITERS + 1):
        trial = descent.iterate(start, iters)
        if trial is None:
            break
        obj = objective(trial)
        if obj >= best_obj * (1.0 - _SEARCH_REL_TOL):
            break
        best, best_obj = trial, obj
    cert = op.psd_sqrt(best)
    lower = max(op.lp_norm(x, p) for x in xs)
    _require_enclosure(lower, best_obj)
    return ColumnNormBounds(lower=lower, upper=best_obj, certificate=cert, p=p,
                            iterations=iters)


@dataclass(frozen=True)
class DoobCheck:
    upper: float
    lower: float
    rhs: float
    p: float
    holds: bool
    verdict: str            # "holds" | "inconclusive-certificate" | "certified-violation"
    bounds: ColumnNormBounds

    @property
    def certified_violation(self) -> bool:
        return self.verdict == "certified-violation"


def doob_consequence_check(path: MartingalePath, p: float) -> DoobCheck:
    """Check ||(x_m)_{m<=n}||_{L_p(l_inf)} <= 2^{2/p} ||x_n||_p for p >= 4.

    A failed upper bound is only ever reported as inconclusive unless the
    certified lower bound itself crosses the right-hand side, which is the
    one situation a numerical search is entitled to call a violation.
    """
    if p < 4.0:
        raise ConfigError(f"p must be >= 4, got {p}")
    if path.md_residual > MD_RESIDUAL_TOL:
        raise NclilError(f"input is not a martingale (residual {path.md_residual:.3e})")
    family = [path.partial(i) for i in range(1, path.horizon + 1)]
    bounds = column_maximal_norm_bounds(family, p)
    rhs = 2.0 ** (2.0 / p) * op.lp_norm(family[-1], p)
    tol = FEAS_TOL * (1.0 + rhs)
    if bounds.upper <= rhs + tol:
        verdict = "holds"
    elif bounds.lower > rhs + tol:
        verdict = "certified-violation"
    else:
        verdict = "inconclusive-certificate"
    return DoobCheck(upper=bounds.upper, lower=bounds.lower, rhs=rhs, p=p,
                     holds=verdict == "holds", verdict=verdict, bounds=bounds)


@dataclass(frozen=True)
class DualDoobCheck:
    lhs: float
    rhs: float
    cp: float
    p: float
    holds: bool


def dual_doob_check(model: AlgebraModel, positives: Sequence[Operator],
                    p: float) -> DualDoobCheck:
    """Check ||sum_i E_i(a_i)||_p <= 2^{2(p-1)/p} ||sum_i a_i||_p, p in [1, 2].

    The a_i must be positive, and a_i is projected onto level i of the
    model's tower, i = 1..len(a).  At p = 1 the constant is 1 and both
    sides agree by trace preservation.
    """
    if not 1.0 <= p <= 2.0:
        raise ConfigError(f"p must lie in [1, 2], got {p}")
    if len(positives) == 0:
        raise ConfigError("need at least one operator")
    for a in positives:
        if not a.hermitian:
            raise NclilError("summands must be hermitian")
        floor = -1e-10 * (1.0 + op.lp_norm(a, np.inf))
        if op.min_eigenvalue(a) < floor:
            raise NclilError("summands must be positive semidefinite")
    projected = sum(conditional_expectation(model, a, k) for k, a in enumerate(positives, 1))
    total = sum(positives)
    lhs = op.lp_norm(projected, p)
    cp = 2.0 ** (2.0 * (p - 1.0) / p)
    rhs = cp * op.lp_norm(total, p)
    return DualDoobCheck(lhs=lhs, rhs=rhs, cp=cp, p=p,
                         holds=bool(lhs <= rhs + FEAS_TOL * (1.0 + rhs)))


@dataclass(frozen=True)
class ProbcResult:
    """Constructive substitute for a maximal tail probability.

    e is the spectral projection of the dominator onto (-inf, t]; every
    compressed column satisfies ||x_i e|| <= t, and s = tau(1 - e) plays
    the role of the exceptional probability.
    """

    s: float
    e: op.Projection
    threshold: float


def probc_upper(xs: Sequence[Operator], t: float, dominator: Operator) -> ProbcResult:
    if t <= 0:
        raise ConfigError(f"threshold must be positive, got {t}")
    if len(xs) == 0:
        raise ConfigError("need at least one operator")
    b = dominator
    if not b.hermitian:
        raise NclilError("dominator must be hermitian")
    ev = op.eigenvalues(b)
    scale = float(max(abs(ev[0]), abs(ev[-1])))
    if ev[0] < -1e-10 * (1.0 + scale):
        raise NclilError("dominator must be positive semidefinite")
    bsq = op.symmetrize(b @ b)
    for x in xs:
        gap = op.min_eigenvalue(bsq - op.abs_square(x))
        if gap < -FEAS_TOL * (1.0 + scale * scale):
            raise NclilError(f"dominator fails to dominate the family (gap {gap:.3e})")
    e = op.spectral_projection(b, -math.inf, t)
    s = max(0.0, 1.0 - e.trace)    # rounding must not produce negative mass
    worst = 0.0
    for x in xs:
        compressed = x @ e
        worst = max(worst, op.lp_norm(compressed, np.inf))
    if worst > t + FEAS_TOL * (1.0 + t):
        raise NclilError(f"compression failed: ||x e|| = {worst} > t = {t}")
    return ProbcResult(s=float(s), e=e, threshold=float(t))


@dataclass(frozen=True)
class ChebyshevResult:
    probc_s: float
    rhs: float
    holds: bool
    residual: float
    threshold: float
    p: float


def chebyshev_bound(xs: Sequence[Operator], t: float, p: float,
                    bounds: ColumnNormBounds) -> ChebyshevResult:
    """Constructive Chebyshev: tau(1 - e) <= t^{-p} ||certificate||_p^p.

    ``bounds`` is the family's column-norm enclosure; with b its
    certificate and e the spectral projection of b below t, the claim is
    the per-eigenvalue identity 1_{(t, inf)}(b) <= (b/t)^p traced out, so
    the residual rhs - s must never go below -1e-10.
    """
    pr = probc_upper(xs, t, bounds.certificate)
    norm_b = op.lp_norm(bounds.certificate, p) if p != bounds.p else bounds.upper
    if norm_b == 0.0:
        rhs = 0.0
    else:
        log_rhs = p * (math.log(norm_b) - math.log(t))
        rhs = math.exp(log_rhs) if log_rhs < _EXP_CAP else math.inf
    residual = rhs - pr.s
    return ChebyshevResult(probc_s=pr.s, rhs=rhs, holds=bool(residual >= -HOLD_TOL),
                           residual=float(residual), threshold=float(t), p=float(p))


@dataclass(frozen=True)
class ScalarBoundResult:
    lhs: float
    rhs: float
    log_lhs: float
    log_rhs: float
    holds: bool


def scalar_power_exp_bound(u: float, p: float) -> ScalarBoundResult:
    """Check |u|^p <= p^p e^{-p} (e^u + e^{-u}) in log space.

    Valid for every real u and p >= 1 because x^p e^{-x} peaks at x = p;
    log-space evaluation keeps the comparison exact-enough out to u of
    order 1e5 where both sides overflow.
    """
    if p < 1.0:
        raise ConfigError(f"p must be >= 1, got {p}")
    u = float(u)
    au = abs(u)
    log_rhs = p * math.log(p) - p + au + math.log1p(math.exp(-2.0 * au))
    log_lhs = -math.inf if au == 0.0 else p * math.log(au)
    holds = log_lhs <= log_rhs + HOLD_TOL
    lhs = math.exp(log_lhs) if log_lhs < _EXP_CAP else math.inf
    rhs = math.exp(log_rhs) if log_rhs < _EXP_CAP else math.inf
    return ScalarBoundResult(lhs=lhs, rhs=rhs, log_lhs=log_lhs, log_rhs=log_rhs,
                             holds=bool(holds))


@dataclass(frozen=True)
class BlockBound:
    """Tail bound for one eta-adic block of a normalized martingale.

    The tilt lam optimizes the exponential Chebyshev step against the
    block's squared normalizer, for which the closed form substitutes the
    eta-adic surrogate ell = ln(eta^(2n)) = 2 n ln(eta); that choice makes
    bound_exact = 8 exp(-c*ell) and bound_final = ell^{-c} with
    c = beta^2 (1+delta)^2 / (4 (1+eps)), and the summability of
    bound_final over n is exactly c > 1.  The prefactor 8 absorbs the
    union over the block and the two-sided truncation losses; it is what
    bound_exact <= bound_final has to pay for, so the comparison needs
    c (ell - ln ell) >= ln 8, an index condition reported as gate_ell
    alongside the p >= 4 and alpha-cap gates.
    """

    n: int
    eta: float
    delta: float
    eps: float
    beta: float
    ell: float
    lam: float
    p: float
    c: float
    bound_exact: float
    bound_final: float
    exact_le_final: bool
    gate_p: bool
    gate_ell: bool = False
    gate_alpha: bool | None = None

    @property
    def valid(self) -> bool:
        """Gates under which the closed-form bound is actually licensed."""
        return self.gate_p and self.gate_ell and self.gate_alpha is not False


def block_tail_bound(n: int, eta: float, delta: float, eps: float, beta: float = 2.0,
                     alpha_next: float | None = None) -> BlockBound:
    if n < 1:
        raise ConfigError(f"block index must be >= 1, got {n}")
    if not 1.0 < eta < 2.0:
        raise ConfigError(f"eta must lie in (1, 2), got {eta}")
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    if not 0.0 < eps <= 1.0:
        raise ConfigError(f"eps must lie in (0, 1], got {eps}")
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    ell = 2.0 * n * math.log(eta)
    lam = beta * (1.0 + delta) * ell / (2.0 * (1.0 + eps))
    p = lam * beta * (1.0 + delta)
    c = beta ** 2 * (1.0 + delta) ** 2 / (4.0 * (1.0 + eps))
    exponent = (1.0 + eps) * lam ** 2 / ell - beta * (1.0 + delta) * lam
    bound_exact = 8.0 * math.exp(exponent)
    bound_final = ell ** (-c)
    alpha_cap = 2.0 * math.sqrt(eps) / (beta * (1.0 + delta))
    gate_alpha = None if alpha_next is None else bool(alpha_next <= alpha_cap)
    return BlockBound(
        n=n, eta=eta, delta=delta, eps=eps, beta=beta, ell=ell, lam=lam, p=p, c=c,
        bound_exact=bound_exact, bound_final=bound_final,
        exact_le_final=bool(bound_exact <= bound_final * (1.0 + 1e-12)),
        gate_p=bool(p >= 4.0),
        gate_ell=bool(c * (ell - math.log(ell)) >= math.log(8.0)),
        gate_alpha=gate_alpha)
