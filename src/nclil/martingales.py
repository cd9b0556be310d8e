"""Matrix martingales: brackets, stopping rules, generators, the ensemble draws.

Martingale data moves through the package as a MartingalePath.  Two kinds
exist.  Dense paths live on a filtered AlgebraModel and keep their partial
sums; the martingale property and the bracket are recomputed honestly
from the actual difference operators through the conditional
expectations while the path is assembled.  Path-carrier
ensembles represent a classical scalar martingale through P simultaneous
sample paths (a multiplication-operator surrogate of dimension P) and keep
only the final values; their brackets and difference bounds are exact by
the choice of increment law.

One iid draw, ``sample_step_increments``, serves every ensemble, and
every ensemble loop reads it through one chunker, ``_atom_chunks``, which
owns the loop's one buffer of ``_STREAM_TILE`` entries.  The draw writes
the integer atoms k of a law from one table, ``_STEP_LAWS``; an increment
is unit * k, the unit (``_step_bound``) applied outside the exact integer
sums.  The streaming engines in ``lil`` sum the chunks with their walker,
so every path is marginally a random walk of its law.
``gen_diagonal_martingale`` draws half its paths and mirrors them, so that
each step's pair (d, -d) sums to exactly 0 and the realized trace of every
difference vanishes (hypothesis (i), which the exponential-moment sweep
checks on its paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import operators as op
from .errors import ConfigError, NclilError, ShapeError
from .filtration import (AlgebraModel, _gaussian_hermitian, conditional_expectation,
                         random_level_element)
from .operators import Operator
from .rng import stream_rng

E_E = float(np.exp(np.e))    # below e^e the iterated logarithm clamps to 1
MD_RESIDUAL_TOL = 1e-9       # martingale-property residual accepted downstream

# Row b: the eight ±1 int8 signs of the bits of byte b, lowest first, as one uint64.
_SIGNS = (2 * (np.arange(256)[:, None] >> np.arange(8) & 1) - 1).astype(np.int8).view(np.uint64)

# Entries in every ensemble loop's buffer, owned by ``_atom_chunks``: 1 MiB of
# floats, 32 steps at 4096 paths, so the draw, the partial sums and the passes
# of the streaming kernel (``lil._consume``) stay in a core's L2 cache.  Defined
# here only; its work buffer, ``lil._work_buffer``, reads it here too.
_STREAM_TILE = 1 << 17

# Centered laws of integer atoms: (Var(k) / atom_max^2 rounded, atom_max).  Uniform
# atoms are the 2^16 odd integers in [-65535, 65535], of variance (2^32 - 1) / 3.
_STEP_LAWS = {"rademacher": (1.0, 1), "uniform": ((2**16 + 1) / (3 * (2**16 - 1)), 2**16 - 1)}


def _step_bound(law: str, variance) -> tuple[float, float]:
    """(bound, unit) of a law at a step variance: unit = sqrt(variance / ratio) /
    atom_max scales its atoms, bound = unit * atom_max.  Every ensemble engine
    validates its law and variance here."""
    if law not in _STEP_LAWS:
        raise ConfigError(f"unknown increment law {law!r}, expected one of {tuple(_STEP_LAWS)}")
    ratio, atom_max = _STEP_LAWS[law]
    unit = math.sqrt(variance / ratio) / atom_max if 0 < variance < math.inf else math.nan
    if not unit * atom_max < math.inf:
        raise ConfigError(f"variance must be finite and > 0 (and its bound finite), got {variance}")
    return unit * atom_max, unit


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
    partials: list[Operator] | None = None
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

    def s2_of(self, n: int) -> float:
        """s^2_n, with s^2_0 = 0."""
        if n == 0:
            return 0.0
        return float(self.s2[n - 1])

    def partial(self, n: int) -> Operator:
        """x_n (1-indexed); requires retained partial sums."""
        if not 1 <= n <= self.horizon:
            raise ConfigError(f"step {n} outside 1..{self.horizon}")
        if n == self.horizon:
            return self.final
        if self.partials is not None:
            return self.partials[n - 1]
        raise NclilError("partial sums were not retained for this path")


def bracket_norms(model: AlgebraModel, diffs: Sequence[Operator]):
    """Cumulative predictable bracket norms of a difference sequence.

    Returns (s2, u) where s2[i] is the operator norm of the bracket
    sum_{k<=i+1} E_{k-1}(d_k^2) and u[i] = iterlog(s2[i])^(1/2).  Only the
    running bracket is held, never one operator per step.
    """
    s2 = np.empty(len(diffs))
    acc = None
    for i, d in enumerate(diffs):
        inc = conditional_expectation(model, op.abs_square(d), i)  # E_{k-1} with k = i+1
        acc = inc if acc is None else acc + inc
        s2[i] = op.lp_norm(acc, np.inf)
    return s2, np.sqrt(iterlog_seq(s2))


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

    @property
    def blocks(self) -> int:
        return max(0, len(self.ks) - 2)

    def block_steps(self, n: int):
        """Steps (1-indexed) of block n, as a half-open python range."""
        if not 1 <= n <= self.blocks:
            raise ConfigError(f"block {n} outside 1..{self.blocks}")
        return range(int(self.ks[n]) + 1, int(self.ks[n + 1]) + 1)


class BracketProfile:
    """The bracket of a path by step, read where it is needed.

    ``s2``, ``u``, ``dnorm`` and the normalizer ``norm`` = sqrt(s^2) u take
    an array of steps (1-indexed, step n is entry n - 1 of the arrays);
    ``norm_range(a, b)`` gives the normalizers of steps a+1 .. b and
    ``count_below(levels)`` the number of steps whose s^2 lies below each
    level, which places the stopping times.  This class wraps the arrays
    of a dense path (``u`` and ``dnorm`` may be omitted when only the
    stopping times are read); ``LinearBracket`` evaluates the closed form
    of an iid ensemble instead, and holds no array as long as the horizon.
    """

    def __init__(self, s2: np.ndarray, u: np.ndarray | None = None,
                 dnorm: np.ndarray | None = None):
        self._s2, self._u, self._dnorm = s2, u, dnorm
        self.horizon = len(s2)

    def s2(self, steps) -> np.ndarray:
        return self._s2[np.asarray(steps) - 1]

    def u(self, steps) -> np.ndarray:
        return self._u[np.asarray(steps) - 1]

    def dnorm(self, steps) -> np.ndarray:
        return self._dnorm[np.asarray(steps) - 1]

    def norm(self, steps) -> np.ndarray:
        return np.sqrt(self.s2(steps)) * self.u(steps)

    def norm_range(self, a: int, b: int) -> np.ndarray:
        return self.norm(np.arange(a + 1, b + 1))

    def count_below(self, levels: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._s2, levels, side="left")


class LinearBracket(BracketProfile):
    """s^2_n = v n of an iid ensemble at step variance v with difference bound
    ``bound``, evaluated on demand.

    Each value is formed by the expression the whole-horizon arrays used
    (``v * n`` on float64 steps, ``np.sqrt(iterlog_seq(s2))``, then
    ``np.sqrt(s2) * u``), elementwise, so it has their bits at any step.
    """

    def __init__(self, variance: float, horizon: int, bound: float):
        self.variance, self.horizon, self.bound = variance, int(horizon), bound

    def s2(self, steps) -> np.ndarray:
        return self.variance * np.asarray(steps, dtype=np.float64)

    def u(self, steps) -> np.ndarray:
        return np.sqrt(iterlog_seq(self.s2(steps)))

    def dnorm(self, steps) -> np.ndarray:
        return np.full(np.shape(steps), self.bound)

    def count_below(self, levels: np.ndarray) -> np.ndarray:
        """#{n <= horizon : v n < level}, as ``np.searchsorted`` on the whole profile.

        ceil(level / v) is the first step at or above a level up to the
        rounding of the quotient; the products v n are nondecreasing in n,
        so stepping it down while the step before still reaches the level,
        and up while it does not, lands on the exact step in a step or two.
        """
        levels = np.asarray(levels, dtype=np.float64)
        n = np.clip(np.ceil(levels / self.variance), 1, self.horizon + 1).astype(np.int64)
        while True:
            down = (n > 1) & (self.s2(n - 1) >= levels)
            up = (n <= self.horizon) & (self.s2(n) < levels)
            if not (down.any() or up.any()):
                return n - 1
            n += up.astype(np.int64) - down


def stopping_indices(s2, eta: float) -> StoppingRule:
    """The eta-adic stopping times of a nondecreasing bracket: a
    BracketProfile, or an array of s^2_1 .. s^2_N."""
    if not 1.0 < eta < 2.0:
        raise ConfigError(f"eta must lie in (1, 2), got {eta}")
    if not isinstance(s2, BracketProfile):
        arr = np.asarray(s2, dtype=np.float64)
        if len(arr) == 0 or np.any(np.diff(arr) < -1e-12 * (1.0 + abs(float(arr[-1])))):
            raise NclilError("bracket profile must be nonempty and nondecreasing")
        s2 = BracketProfile(arr)
    top = float(s2.s2(s2.horizon))
    n_max = 0
    if top >= eta * eta:
        n_max = int(math.floor(math.log(top) / (2.0 * math.log(eta)) + 1e-12))
    ks = np.zeros(n_max + 1, dtype=np.int64)
    thresholds = eta ** (2.0 * np.arange(1, n_max + 1))
    ks[1:] = s2.count_below(thresholds)
    return StoppingRule(eta=eta, ks=ks)


def _haar_sa_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Self-adjoint unitary with Haar-random eigenbasis and random signs."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    signs = rng.choice([-1.0, 1.0], size=d)
    return op._hermitian_part((q * signs) @ q.conj().T)


def _traceless_site(rng: np.random.Generator, m: int, norm: float) -> np.ndarray:
    for _ in range(64):
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = op._hermitian_part(g)
        a -= (np.trace(a).real / m) * np.eye(m)
        top = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        if top > 1e-8:
            return a * (norm / top)
    raise NclilError("failed to draw a nonzero traceless site operator")


def _dense_bounds(model: AlgebraModel, bound_seq, horizon: int | None):
    """(horizon, per-step norm bounds) of a dense generator; no bounds means unit bounds."""
    horizon = model.n if horizon is None else int(horizon)
    if not 1 <= horizon <= model.n:
        raise ConfigError(f"horizon must lie in 1..{model.n}")
    if bound_seq is None:
        return horizon, np.ones(horizon)
    b = np.asarray(bound_seq, dtype=np.float64)
    if b.shape != (horizon,) or np.any(b <= 0):
        raise ConfigError("bound sequence must be positive with one entry per step")
    return horizon, b


def _assemble_dense_path(model, diffs, meta):
    """Path of the differences, with its bracket profile from ``bracket_norms``.

    The differences are checked and summed here and not kept: the path
    holds their partial sums.
    """
    s2, u = bracket_norms(model, diffs)
    partials = []
    acc = None
    for d in diffs:
        acc = d if acc is None else acc + d
        partials.append(acc)
    dnorm = np.array([op.lp_norm(d, np.inf) for d in diffs])
    resid = validate_differences(model, diffs)
    if resid > MD_RESIDUAL_TOL:
        raise NclilError(f"generated differences fail the martingale property ({resid:.3e})")
    return MartingalePath(
        final=partials[-1], s2=s2, u=u, dnorm=dnorm, model=model, partials=partials,
        md_residual=resid, meta=meta)


def gen_tensor_martingale(model: AlgebraModel, bound_seq=None, coupling: str = "haar",
                          seed: int = 0, horizon: int | None = None) -> MartingalePath:
    """Martingale adapted to a tensor filtration, one difference per level.

    Differences take the form d_k = w_{k-1} (x) a_k (x) 1 with a_k a
    traceless hermitian site operator (so E_{k-1} d_k = 0 exactly) and
    w_{k-1} either the identity or a random self-adjoint unitary of the
    past algebra, which couples the difference to the history without
    changing its norm.  ||d_k||_inf is the k-th entry of the bound
    sequence (unit bounds when none is given).  d_k is stored at level k
    as the block w_{k-1} (x) a_k.
    """
    if model.kind != "tensor":
        raise ConfigError("tensor martingales need a tensor model")
    if coupling not in ("none", "haar"):
        raise ConfigError(f"unknown coupling {coupling!r}")
    horizon, bounds = _dense_bounds(model, bound_seq, horizon)
    rng = stream_rng(seed, label=f"tensor-mart-{model.m}-{model.n}")
    diffs = [_tensor_difference(model, k, float(bounds[k - 1]), coupling, rng)
             for k in range(1, horizon + 1)]
    return _assemble_dense_path(model, diffs,
                                {"generator": "tensor", "coupling": coupling, "seed": seed})


def _tensor_difference(model: AlgebraModel, k: int, bound: float, coupling: str,
                       rng: np.random.Generator) -> Operator:
    """d_k = w_{k-1} (x) a_k with ||a_k||_inf = bound, stored at level k."""
    a = _traceless_site(rng, model.m, bound)
    past = model.level_dim(k - 1)
    w = np.eye(past) if coupling == "none" else _haar_sa_unitary(rng, past)
    return Operator(np.kron(w, a), hermitian=True, mult=model.dim // (past * model.m),
                    layout="tensor")


def gen_model_martingale(model: AlgebraModel, bound_seq=None, seed: int = 0,
                         horizon: int | None = None) -> MartingalePath:
    """Martingale on any filtered model: d_k = y_k - E_{k-1}(y_k).

    y_k is a random hermitian element of level k, so d_k lies in level k
    and is exactly centered; it is then rescaled to the k-th entry of the
    bound sequence (unit bounds when none is given).
    """
    horizon, bounds = _dense_bounds(model, bound_seq, horizon)
    rng = stream_rng(seed, label=f"model-mart-{model.kind}-{model.m}-{model.n}")
    diffs = [_centered_level_element(model, k, float(bounds[k - 1]), rng)
             for k in range(1, horizon + 1)]
    return _assemble_dense_path(model, diffs,
                                {"generator": "model", "kind": model.kind, "seed": seed})


def _centered_level_element(model: AlgebraModel, k: int, bound: float,
                            rng: np.random.Generator) -> Operator:
    """y - E_{k-1}(y) for a random hermitian y of level k, rescaled to norm ``bound``.

    Its draws and their centered candidates die with the call, so no level's
    blocks outlive it beside the difference.
    """
    for _ in range(64):
        y = random_level_element(model, k, rng)
        cand = y - conditional_expectation(model, y, k - 1)
        del y                                   # not held while cand is scaled
        top = op.lp_norm(cand, np.inf)
        if top > 1e-10:
            return cand * (bound / top)
    raise NclilError(f"level {k} produced no nonzero centered element")


def sample_step_increments(rng: np.random.Generator, law: str, out: np.ndarray) -> np.ndarray:
    """Write the integer atoms of iid centered increments into ``out``, (steps, paths).

    ``out`` is C-contiguous, of a signed integer type that holds ±atom_max
    (else a ShapeError), and is returned.  Each step takes whole raw words of
    the bit generator (a full-range ``rng.integers``' words), so its draws
    never depend on how the steps are split into blocks: a rademacher step
    ceil(paths / 64) words, one table lookup of eight ±1 per byte; a uniform
    one ceil(paths / 4) words, whose 16-bit lanes u, lowest first, give
    k = 2u - 65535.
    """
    if law not in _STEP_LAWS:
        raise ConfigError(f"unknown increment law {law!r}, expected one of {tuple(_STEP_LAWS)}")
    atom_max = _STEP_LAWS[law][1]
    if out.dtype.kind != "i" or np.iinfo(out.dtype).max < atom_max:
        raise ShapeError(f"out of dtype {out.dtype} cannot hold a {law} draw")
    steps, paths = out.shape
    if law == "rademacher":
        raw = rng.bit_generator.random_raw((steps, -(-paths // 64))).view(np.uint8)
        if out.dtype == np.int8 and paths % 64 == 0:    # lookup into out; "clip" avoids a copy
            _SIGNS.take(raw, out=out.view(np.uint64), mode="clip")
        else:
            out[:] = _SIGNS.take(raw).view(np.int8)[:, :paths]
    else:
        lanes = rng.bit_generator.random_raw((steps, -(-paths // 4))).view(np.uint16)
        np.multiply(lanes[:, :paths], 2, out=out, dtype=out.dtype)
        out -= atom_max
    return out


def _atom_chunks(rng: np.random.Generator, law: str, paths: int, total: int):
    """Yield (pos, block): the atoms of steps pos+1 .. pos+len(block) of an
    ensemble of ``paths`` iid walks, ``total`` steps in all.

    Every block is a view of one buffer of ``chunk`` = _STREAM_TILE // paths
    steps (at least one, at most ``total``), valid until the next one is
    drawn; the last may be shorter.  The buffer's dtype is the narrowest
    signed integer type that holds ±chunk * atom_max, so a walk can sum a
    chunk's atoms in place exactly: for rademacher int8 up to 127 steps,
    int16 up to 32767, else int32; for uniform int32 up to 32768 steps,
    else int64.  A step's draws never depend on the chunk.
    """
    atom_max = _STEP_LAWS[law][1]
    chunk = max(1, min(total, _STREAM_TILE // paths))
    # -chunk * atom_max - 1 fits exactly when both ±chunk * atom_max do
    buf = np.empty((chunk, paths), np.min_scalar_type(-chunk * atom_max - 1))
    for pos in range(0, total, chunk):
        yield pos, sample_step_increments(rng, law, buf[:total - pos])


def gen_diagonal_martingale(horizon: int, paths: int = 4096, law: str = "rademacher",
                            variance: float = 1.0, seed: int = 0) -> MartingalePath:
    """Scalar martingale carried by an ensemble of P sample paths, mirrored in pairs.

    The first P/2 paths are iid walks of the law at step variance
    ``variance``: the int64 column sums of their atoms' chunks
    (``_atom_chunks``) are scaled once by the unit into the final values h;
    the other P/2 are their mirror images, so the path keeps
    S_horizon = [h, -h] and nothing else.  Each step's pair (d, -d) sums to
    exactly 0, so hypothesis (i) holds by construction and ``md_residual``
    is 0.0.  The bracket and the difference bounds are exact by the law, not
    estimated from the sample.
    """
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    if paths < 2 or paths % 2:
        raise ConfigError("need an even number of paths >= 2")
    bound, unit = _step_bound(law, variance)
    half = paths // 2
    head = np.zeros(half, dtype=np.int64)
    for _, block in _atom_chunks(stream_rng(seed, label=f"diag-mart-{law}"), law, half, horizon):
        head += block.sum(axis=0, dtype=np.int64)
    head = head * unit
    s2 = np.cumsum(np.full(horizon, float(variance)))
    return MartingalePath(
        final=Operator(np.concatenate([head, -head]), hermitian=True, diagonal=True),
        s2=s2, u=np.sqrt(iterlog_seq(s2)), dnorm=np.full(horizon, bound),
        md_residual=0.0, meta={"law": law, "seed": seed})


def gue_matrix(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standardized GUE draw with tau(h^2) ~ 1 and spectrum filling (-2, 2)."""
    return _gaussian_hermitian(rng, size, math.sqrt(4.0 * size))
