"""Matrix martingales: brackets, growth profiles, stopping rules, generators.

Martingale data moves through the package as a MartingalePath.  Two kinds
exist.  Dense paths live on a filtered AlgebraModel and keep their actual
difference operators, so the martingale property and the bracket are
recomputed honestly through the conditional expectations.  Path-carrier
ensembles represent a classical scalar martingale through P simultaneous
sample paths (a multiplication-operator surrogate of dimension P); their
brackets and difference bounds are exact by the choice of increment law,
and increments are sign-balanced within each step so realized traces of
differences vanish to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import operators as op
from .errors import ConfigError, NclilError, ShapeError
from .filtration import AlgebraModel, conditional_expectation, random_level_element
from .operators import Operator
from .rng import stream_rng

E_E = float(np.exp(np.e))    # below e^e the iterated logarithm clamps to 1
MD_RESIDUAL_TOL = 1e-9       # martingale-property residual accepted downstream
_PARTIALS_CAP = 1 << 23      # max horizon*paths floats materialized by generators

_LAWS = ("rademacher", "uniform")


def iterlog(x: float) -> float:
    """L(x) = max(1, ln ln x) for x > e^e, else exactly 1."""
    x = float(x)
    if x <= 0.0:
        raise NclilError(f"iterated logarithm needs x > 0, got {x}")
    if x <= E_E:
        return 1.0
    # np.log, not math.log: the two libms can differ by an ulp, and the
    # scalar must agree bit for bit with iterlog_seq.
    return float(np.log(np.log(x)))


def iterlog_seq(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if np.any(xs <= 0.0):
        raise NclilError("iterated logarithm needs positive arguments")
    out = np.ones_like(xs)
    big = xs > E_E
    out[big] = np.log(np.log(xs[big]))
    return out


@dataclass(frozen=True)
class PathEnsemble:
    """Classical carrier: P simultaneous sample paths of one scalar law."""

    paths: int
    law: str
    horizon: int


@dataclass
class MartingalePath:
    """A finite martingale with its realized bracket and norm profiles.

    Arrays are step-indexed: entry i describes step n = i + 1, and by
    convention x_0 = 0, s^2_0 = 0.  ``s2`` is nondecreasing; ``u`` is the
    square root of the iterated logarithm of ``s2`` and never drops
    below 1.
    """

    final: Operator
    s2: np.ndarray
    u: np.ndarray
    dnorm: np.ndarray
    model: AlgebraModel | None = None
    ensemble: PathEnsemble | None = None
    differences: list[Operator] | None = None
    partials: list[Operator] | None = None
    increments: np.ndarray | None = None   # ensemble kinds, when retained
    md_residual: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        N = len(self.s2)
        if not (len(self.u) == len(self.dnorm) == N):
            raise ShapeError("profile arrays disagree in length")
        if N == 0:
            raise ConfigError("empty martingale")
        if np.any(np.diff(self.s2) < -1e-12 * (1.0 + self.s2[-1])):
            raise NclilError("bracket profile must be nondecreasing")
        if np.any(self.u < 1.0 - 1e-12):
            raise NclilError("iterated-logarithm profile dipped below 1")

    @property
    def horizon(self) -> int:
        return len(self.s2)

    @property
    def is_ensemble(self) -> bool:
        return self.ensemble is not None

    def s2_of(self, n: int) -> float:
        """s^2_n, with s^2_0 = 0."""
        if n == 0:
            return 0.0
        return float(self.s2[n - 1])

    def u_of(self, n: int) -> float:
        return float(self.u[n - 1])

    def dnorm_of(self, n: int) -> float:
        return float(self.dnorm[n - 1])

    def partial(self, n: int) -> Operator:
        """x_n (1-indexed); requires retained partial sums."""
        if not 1 <= n <= self.horizon:
            raise ConfigError(f"step {n} outside 1..{self.horizon}")
        if n == self.horizon:
            return self.final
        if self.partials is not None:
            return self.partials[n - 1]
        if self.increments is not None:
            return Operator(self.increments[:n].sum(axis=0), hermitian=True, diagonal=True)
        raise NclilError("partial sums were not retained for this path")


def bracket_norms(model: AlgebraModel, diffs: Sequence[Operator]):
    """Cumulative predictable brackets of a difference sequence.

    Returns (bracket_ops, s2, u) where bracket_ops[i] is
    sum_{k<=i+1} E_{k-1}(d_k^2), s2[i] is its operator norm and
    u[i] = iterlog(s2[i])^(1/2).
    """
    ops = []
    s2 = np.empty(len(diffs))
    acc = None
    for i, d in enumerate(diffs):
        sq = op.symmetrize(d.adjoint() @ d)
        inc = conditional_expectation(model, sq, i)  # E_{k-1} with k = i+1
        acc = inc if acc is None else acc + inc
        ops.append(acc)
        s2[i] = op.lp_norm(acc, np.inf)
    return ops, s2, np.sqrt(iterlog_seq(s2))


def validate_differences(model: AlgebraModel, diffs: Sequence[Operator]) -> float:
    """Worst-case ||E_{k-1}(d_k)||_inf over the sequence."""
    worst = 0.0
    for i, d in enumerate(diffs):
        ed = conditional_expectation(model, d, i)
        worst = max(worst, op.lp_norm(ed, np.inf))
    return worst


@dataclass(frozen=True)
class StoppingRule:
    """First-passage times of the bracket across eta-adic thresholds.

    ks[n] = k_n = inf{j >= 0 : s^2_{j+1} >= eta^(2n)} with k_0 = 0, listed
    for every threshold reached within the horizon.  Block n covers steps
    k_n+1 .. k_{n+1}, so the last usable block index is len(ks) - 2.
    """

    eta: float
    ks: np.ndarray
    truncated: bool

    @property
    def blocks(self) -> int:
        return max(0, len(self.ks) - 2)

    def block_steps(self, n: int):
        """Steps (1-indexed) of block n, as a half-open python range."""
        if not 1 <= n <= self.blocks:
            raise ConfigError(f"block {n} outside 1..{self.blocks}")
        return range(int(self.ks[n]) + 1, int(self.ks[n + 1]) + 1)


def stopping_indices(s2, eta: float, count: int | None = None) -> StoppingRule:
    """Compute the eta-adic stopping times of a nondecreasing bracket profile."""
    if not 1.0 < eta < 2.0:
        raise ConfigError(f"eta must lie in (1, 2), got {eta}")
    s2 = np.asarray(s2, dtype=np.float64)
    if len(s2) == 0 or np.any(np.diff(s2) < -1e-12 * (1.0 + abs(float(s2[-1])))):
        raise NclilError("bracket profile must be nonempty and nondecreasing")
    top = float(s2[-1])
    n_max = 0
    if top >= eta * eta:
        n_max = int(math.floor(math.log(top) / (2.0 * math.log(eta)) + 1e-12))
    requested = count
    if count is not None:
        if count < 1:
            raise ConfigError("count must be >= 1")
        n_max = min(n_max, count)
    ks = np.zeros(n_max + 1, dtype=np.int64)
    thresholds = eta ** (2.0 * np.arange(1, n_max + 1))
    ks[1:] = np.searchsorted(s2, thresholds, side="left")
    truncated = requested is not None and n_max < requested
    return StoppingRule(eta=eta, ks=ks, truncated=truncated)


def _haar_sa_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Self-adjoint unitary with Haar-random eigenbasis and random signs."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    signs = rng.choice([-1.0, 1.0], size=d)
    w = (q * signs) @ q.conj().T
    return 0.5 * (w + w.conj().T)


def _traceless_site(rng: np.random.Generator, m: int, norm: float) -> np.ndarray:
    for _ in range(64):
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = 0.5 * (g + g.conj().T)
        a -= (np.trace(a).real / m) * np.eye(m)
        top = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        if top > 1e-8:
            return a * (norm / top)
    raise NclilError("failed to draw a nonzero traceless site operator")


def _resolve_bounds(bound_seq, alpha_profile, horizon: int, base_scale: float):
    if bound_seq is not None and alpha_profile is not None:
        raise ConfigError("give either explicit bounds or a growth profile, not both")
    if bound_seq is not None:
        b = np.asarray(bound_seq, dtype=np.float64)
        if b.shape != (horizon,) or np.any(b <= 0):
            raise ConfigError("bound sequence must be positive with one entry per step")
        return b, None
    if alpha_profile is None:
        return np.full(horizon, float(base_scale)), None
    if callable(alpha_profile):
        prof = np.array([float(alpha_profile(n)) for n in range(1, horizon + 1)])
    else:
        prof = np.asarray(alpha_profile, dtype=np.float64)
    if prof.shape != (horizon,) or np.any(prof <= 0):
        raise ConfigError("growth profile must be positive with one entry per step")
    return None, prof


def _assemble_dense_path(model, diffs, seed_meta):
    partials = []
    acc = None
    for d in diffs:
        acc = d if acc is None else acc + d
        partials.append(acc)
    _, s2, u = bracket_norms(model, diffs)
    dnorm = np.array([op.lp_norm(d, np.inf) for d in diffs])
    resid = validate_differences(model, diffs)
    if resid > MD_RESIDUAL_TOL:
        raise NclilError(f"generated differences fail the martingale property ({resid:.3e})")
    return MartingalePath(
        final=partials[-1], s2=s2, u=u, dnorm=dnorm, model=model,
        differences=list(diffs), partials=partials,
        md_residual=resid, meta=seed_meta)


def gen_tensor_martingale(model: AlgebraModel, bound_seq=None, alpha_profile=None,
                          coupling: str = "haar", seed: int = 0, horizon: int | None = None,
                          base_scale: float = 1.0) -> MartingalePath:
    """Martingale adapted to a tensor filtration, one difference per level.

    Differences take the form d_k = w_{k-1} (x) a_k (x) 1 with a_k a
    traceless hermitian site operator (so E_{k-1} d_k = 0 exactly) and
    w_{k-1} either the identity or a random self-adjoint unitary of the
    past algebra, which couples the difference to the history without
    changing its norm.  ||d_k||_inf is set by the bound sequence, or
    adaptively as alpha_k s_{k-1}/u_{k-1} when a growth profile is given
    (the first step then uses base_scale).
    """
    if model.kind != "tensor":
        raise ConfigError("tensor martingales need a tensor model")
    if coupling not in ("none", "haar"):
        raise ConfigError(f"unknown coupling {coupling!r}")
    horizon = model.n if horizon is None else int(horizon)
    if not 1 <= horizon <= model.n:
        raise ConfigError(f"horizon must lie in 1..{model.n}")
    bounds, prof = _resolve_bounds(bound_seq, alpha_profile, horizon, base_scale)
    rng = stream_rng(seed, label=f"tensor-mart-{model.m}-{model.n}")
    diffs = []
    acc_bracket = None
    s2_prev = 0.0
    for k in range(1, horizon + 1):
        if prof is None:
            m_k = float(bounds[k - 1])
        elif k == 1:
            m_k = float(base_scale)
        else:
            m_k = float(prof[k - 1]) * math.sqrt(s2_prev) / math.sqrt(iterlog(s2_prev))
        a = _traceless_site(rng, model.m, m_k)
        past = model.level_dim(k - 1)
        w = np.eye(past) if coupling == "none" else _haar_sa_unitary(rng, past)
        rest = model.dim // (past * model.m)
        d = Operator(np.kron(np.kron(w, a), np.eye(rest)), hermitian=True)
        diffs.append(d)
        sq = op.symmetrize(d.adjoint() @ d)
        inc = conditional_expectation(model, sq, k - 1)
        acc_bracket = inc if acc_bracket is None else acc_bracket + inc
        s2_prev = op.lp_norm(acc_bracket, np.inf)
    meta = {"generator": "tensor", "coupling": coupling, "seed": seed}
    return _assemble_dense_path(model, diffs, meta)


def gen_model_martingale(model: AlgebraModel, bound_seq=None, seed: int = 0,
                         horizon: int | None = None, base_scale: float = 1.0) -> MartingalePath:
    """Martingale on any filtered model: d_k = y_k - E_{k-1}(y_k).

    y_k is a random hermitian element of level k, so d_k lies in level k
    and is exactly centered; it is then rescaled to the requested norm.
    """
    horizon = model.n if horizon is None else int(horizon)
    if not 1 <= horizon <= model.n:
        raise ConfigError(f"horizon must lie in 1..{model.n}")
    bounds, _ = _resolve_bounds(bound_seq, None, horizon, base_scale)
    rng = stream_rng(seed, label=f"model-mart-{model.kind}-{model.m}-{model.n}")
    diffs = []
    for k in range(1, horizon + 1):
        d = None
        for _ in range(64):
            y = random_level_element(model, k, rng)
            cand = y - conditional_expectation(model, y, k - 1)
            top = op.lp_norm(cand, np.inf)
            if top > 1e-10:
                d = cand * (float(bounds[k - 1]) / top)
                break
        if d is None:
            raise NclilError(f"level {k} produced no nonzero centered element")
        diffs.append(d)
    meta = {"generator": "model", "kind": model.kind, "seed": seed}
    return _assemble_dense_path(model, diffs, meta)


def sample_step_increments(rng: np.random.Generator, law: str, scale: float,
                           paths: int, steps: int = 1) -> np.ndarray:
    """(steps, paths) block of centered bounded increments, |d| <= scale.

    Each step is sign-balanced across the ensemble: exactly half the paths
    get each sign (rademacher) or a mirrored magnitude (uniform), so the
    realized cross-path mean of every step is zero to rounding while the
    per-path marginal law is unchanged.
    """
    if law not in _LAWS:
        raise ConfigError(f"unknown increment law {law!r}, expected one of {_LAWS}")
    if paths < 2 or paths % 2:
        raise ConfigError("need an even number of paths >= 2")
    half = paths // 2
    if law == "rademacher":
        block = np.concatenate(
            [np.full((steps, half), scale), np.full((steps, half), -scale)], axis=1)
    else:
        mags = rng.uniform(0.0, scale, size=(steps, half))
        block = np.concatenate([mags, -mags], axis=1)
    return rng.permuted(block, axis=1)


def law_variance_factor(law: str) -> float:
    """Var(d)/scale^2 for a unit of the given law."""
    return 1.0 if law == "rademacher" else 1.0 / 3.0


def gen_diagonal_martingale(horizon: int, paths: int = 4096, law: str = "rademacher",
                            variance=1.0, seed: int = 0,
                            keep_increments: bool | None = None) -> MartingalePath:
    """Scalar martingale carried by an ensemble of P sample paths.

    The bracket and the difference bounds are exact by the law (variance
    profile ``variance`` per step), not estimated from the sample; the
    sample only carries the distributional statistics.  Increments are
    retained when the horizon*paths product stays small enough, or on
    request.
    """
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    v = np.asarray(variance, dtype=np.float64)
    if v.ndim == 0:
        v = np.full(horizon, float(v))
    if v.shape != (horizon,) or np.any(v <= 0):
        raise ConfigError("variance profile must be positive with one entry per step")
    if keep_increments is None:
        keep_increments = horizon * paths <= _PARTIALS_CAP
    if keep_increments and horizon * paths > _PARTIALS_CAP:
        raise ConfigError(f"refusing to materialize {horizon}x{paths} increments")
    factor = law_variance_factor(law)
    scales = np.sqrt(v / factor)           # ess-sup of each increment
    rng = stream_rng(seed, label=f"diag-mart-{law}")
    s = np.zeros(paths)
    kept = [] if keep_increments else None
    max_step_mean = 0.0
    chunk = max(1, min(horizon, _PARTIALS_CAP // max(paths, 1)))
    done = 0
    while done < horizon:
        take = min(chunk, horizon - done)
        block = sample_step_increments(rng, law, 1.0, paths, steps=take)
        block *= scales[done:done + take, None]
        max_step_mean = max(max_step_mean, float(np.max(np.abs(block.mean(axis=1)))))
        s += block.sum(axis=0)
        if kept is not None:
            kept.append(block)
        done += take
    s2 = np.cumsum(v)
    path = MartingalePath(
        final=Operator(s, hermitian=True, diagonal=True),
        s2=s2, u=np.sqrt(iterlog_seq(s2)), dnorm=scales,
        ensemble=PathEnsemble(paths=paths, law=law, horizon=horizon),
        increments=np.concatenate(kept, axis=0) if kept is not None else None,
        md_residual=max_step_mean,
        meta={"law": law, "seed": seed, "bracket_exact": True, "centering_exact": True,
              "max_step_mean": max_step_mean})
    return path


def gue_matrix(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standardized GUE draw with tau(h^2) ~ 1 and spectrum filling (-2, 2)."""
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return (g + g.conj().T) / math.sqrt(4.0 * size)
