"""Filtered matrix-algebra models and their conditional expectations.

A model is a tower of unital subalgebras N_0 = C*1 <= N_1 <= ... <= N_n
inside a matrix algebra of total dimension m^n, together with the
trace-preserving conditional expectations E_k onto each level.  Three
concrete realizations are provided:

- "tensor":   N_k = M_{m^k} (x) 1, so E_k is a normalized partial trace
              over the last n-k tensor factors.
- "pinching": N_k is M_{m^k} embedded with multiplicity, i.e. block
              diagonal matrices diag(y, ..., y) with m^{n-k} repeated
              blocks of size m^k.  E_k pinches to the block diagonal and
              averages the blocks.
- "diagonal": the commutative algebra of functions on m^n sample points,
              stored as vectors; E_k averages over the cells determined by
              the first k coordinates.

All three satisfy the module property, trace preservation, the tower rule,
positivity and L_p contractivity, which verify_ce_axioms samples.

Dense level-k elements are stored at their level: the m^k block y with
multiplicity m^(n-k) in the model's own layout (y (x) 1 for tensor,
1 (x) y for pinching), so E_k and everything built on it work at m^k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as op
from .errors import ConfigError, ShapeError
from .operators import Operator
from .rng import stream_rng

DENSE_DIM_CAP = 4096       # largest dense block: the level-n block of a model
DIAGONAL_DIM_CAP = 1 << 24
CE_AXIOM_TOL = 1e-8
_CE_CONTRACTION_PS = (1.0, 2.0, 4.0, np.inf)   # exponents of the L_p contraction check

_KINDS = ("tensor", "pinching", "diagonal")


@dataclass(frozen=True)
class AlgebraModel:
    """A concrete filtration: kind, site dimension m, depth n."""

    kind: str
    m: int
    n: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}, expected one of {_KINDS}")
        if self.m < 2:
            raise ConfigError(f"site dimension must be >= 2, got {self.m}")
        if self.n < 1:
            raise ConfigError(f"depth must be >= 1, got {self.n}")
        dim = self.m ** self.n
        cap = DIAGONAL_DIM_CAP if self.kind == "diagonal" else DENSE_DIM_CAP
        if dim > cap:
            raise ConfigError(f"total dimension {dim} exceeds the {self.kind} cap {cap}")

    @property
    def dim(self) -> int:
        return self.m ** self.n

    def level_dim(self, k: int) -> int:
        return self.m ** k

    def to_json(self) -> dict:
        return {"kind": self.kind, "m": self.m, "n": self.n}


def _check_level(model: AlgebraModel, k: int):
    if not 0 <= k <= model.n:
        raise ConfigError(f"level {k} outside 0..{model.n}")


def _as_element(model: AlgebraModel, x: Operator) -> tuple[Operator, int]:
    """(x, level of its stored block) after the storage checks.

    A level embedding that is not one of this model's levels (another
    layout, or a block size that is not a power of m) is lifted to its
    ambient matrix and counts as level n.
    """
    if x.dim != model.dim:
        raise ShapeError(f"operator dim {x.dim} does not match model dim {model.dim}")
    if model.kind == "diagonal" and not x.diagonal:
        raise ShapeError("diagonal models act on diagonally stored operators")
    if model.kind != "diagonal" and x.diagonal:
        raise ShapeError(f"{model.kind} model needs dense storage")
    if x.mult == 1:
        return x, model.n
    level, size = 0, x.data.shape[0]
    while size % model.m == 0:
        level, size = level + 1, size // model.m
    if x.layout != model.kind or size != 1:
        return Operator(x._block_at(1), hermitian=x.hermitian), model.n
    return x, level


def conditional_expectation(model: AlgebraModel, x: Operator, k: int) -> Operator:
    """Trace-preserving conditional expectation of x onto level k.

    Dense results are stored at level k (or at the level of x when that is
    lower, since then x lies in level k and is returned as it is).
    """
    _check_level(model, k)
    x, level = _as_element(model, x)
    if level <= k:
        return x
    if model.kind == "diagonal":
        cells = model.level_dim(k)
        width = model.dim // cells
        v = x.data.reshape(cells, width)
        means = v.mean(axis=1)
        out = np.repeat(means, width)
        return Operator(out, hermitian=x.hermitian, diagonal=True)
    da = model.level_dim(k)           # kept part
    db = x.data.shape[0] // da        # averaged part of the stored block
    if model.kind == "tensor":
        y = np.einsum("ajbj->ab", x.data.reshape(da, db, da, db)) / db
    else:  # pinching: blocks of size m^k on the diagonal, then average them
        y = np.einsum("iaib->ab", x.data.reshape(db, da, db, da)) / db
    return Operator(y, hermitian=x.hermitian, mult=model.dim // da, layout=model.kind)


def random_level_element(model: AlgebraModel, k: int, rng: np.random.Generator) -> Operator:
    """Random hermitian element of the level-k subalgebra, O(1)-normalized."""
    _check_level(model, k)
    d = model.level_dim(k)
    rest = model.dim // d
    if model.kind == "diagonal":
        return Operator(np.repeat(rng.standard_normal(d), rest), hermitian=True, diagonal=True)
    return Operator(_gaussian_hermitian(rng, d, 2.0 * np.sqrt(d)), hermitian=True, mult=rest,
                    layout=model.kind)


def _gaussian_hermitian(rng: np.random.Generator, d: int, divisor: float) -> np.ndarray:
    """(g + g^H) / divisor for g = a + ib, a and b two (d, d) standard normal draws in turn.

    The real and imaginary parts are a + a^T and b - b^T, formed in place in
    one complex array; every entry has the bits of the complex expression
    whenever no draw is exactly zero.
    """
    out = np.empty((d, d), dtype=np.complex128)
    g = rng.standard_normal((d, d))
    np.add(g, g.T, out=out.real)
    rng.standard_normal(out=g)
    np.subtract(g, g.T, out=out.imag)
    out /= divisor
    return out


def random_full_element(model: AlgebraModel, rng: np.random.Generator) -> Operator:
    return random_level_element(model, model.n, rng)


@dataclass
class CEAxiomReport:
    """Worst-case residuals over sampled axiom checks."""

    model: AlgebraModel
    samples: int
    module_property: float = 0.0
    trace_preservation: float = 0.0
    tower: float = 0.0
    positivity: float = 0.0
    contraction: float = 0.0
    tol: float = CE_AXIOM_TOL

    @property
    def worst(self) -> float:
        return max(self.module_property, self.trace_preservation, self.tower,
                   self.positivity, self.contraction)

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "samples": self.samples,
            "module_property": self.module_property,
            "trace_preservation": self.trace_preservation,
            "tower": self.tower,
            "positivity": self.positivity,
            "contraction": self.contraction,
            "worst": self.worst,
            "passed": self.passed,
        }


def _opnorm(x: Operator) -> float:
    return op.lp_norm(x, np.inf)


def verify_ce_axioms(model: AlgebraModel, samples: int = 100, seed: int = 0) -> CEAxiomReport:
    """Sample the conditional-expectation axioms and report worst residuals.

    Per sample: draw levels j <= k, a full random x, and a, b in level k;
    check E_k(a x b) = a E_k(x) b, tau(E_k x) = tau(x), E_j E_k = E_j,
    E_k(x* x) >= 0, and ||E_k x||_p <= ||x||_p for each p.
    """
    if samples < 1:
        raise ConfigError("need at least one sample")
    rep = CEAxiomReport(model=model, samples=samples)
    rng = stream_rng(seed, label=f"ce-axioms-{model.kind}-{model.m}-{model.n}")
    for _ in range(samples):
        k = int(rng.integers(0, model.n + 1))
        j = int(rng.integers(0, k + 1))
        x = random_full_element(model, rng)
        a = random_level_element(model, k, rng)
        b = random_level_element(model, k, rng)
        ex = conditional_expectation(model, x, k)

        lhs = conditional_expectation(model, a @ x @ b, k)
        rhs = a @ ex @ b
        rep.module_property = max(rep.module_property, _opnorm(lhs - rhs))

        rep.trace_preservation = max(
            rep.trace_preservation,
            abs(complex(op.normalized_trace(ex)) - complex(op.normalized_trace(x))))

        ejk = conditional_expectation(model, ex, j)
        ej = conditional_expectation(model, x, j)
        rep.tower = max(rep.tower, _opnorm(ejk - ej))

        sq = x @ x if model.kind == "diagonal" else op.abs_square(x)
        esq = conditional_expectation(model, sq, k)
        rep.positivity = max(rep.positivity, max(0.0, -op.min_eigenvalue(esq)))

        for p in _CE_CONTRACTION_PS:
            gap = op.lp_norm(ex, p) - op.lp_norm(x, p)
            rep.contraction = max(rep.contraction, gap)
    return rep
