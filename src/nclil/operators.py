"""Operators on finite noncommutative probability spaces.

The ambient algebra is a matrix algebra carrying the normalized trace
tau = tr/dim, so the identity always has trace one and L_p norms are
computed against tau.  Two storage layouts coexist: dense complex square
matrices, and vectors of diagonal entries for multiplication operators on
a finite sample space.  Mixed arithmetic promotes to dense.

Operators are immutable.  The ``hermitian`` flag is part of the value and
is validated at construction; spectral routines require it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NclilError, ShapeError

HERM_ATOL = 1e-10       # residual allowed when the hermitian flag is set
RECON_TOL = 1e-9        # eigendecomposition must reconstruct this well
PROJ_ATOL = 1e-8        # idempotence residual for projections
ENDPOINT_FUZZ = 1e-12   # snapping width for spectral interval endpoints
IMAG_ATOL = 1e-10       # imaginary residual allowed in real statistics


def real_statistic(z, context: str = "statistic") -> float:
    """Collapse a nominally real scalar, asserting the imaginary residual."""
    z = complex(z)
    if abs(z.imag) > IMAG_ATOL * (1.0 + abs(z.real)):
        raise NclilError(f"{context} has imaginary residual {z.imag:.3e}")
    return float(z.real)


class Operator:
    """Immutable element of a matrix algebra with normalized trace.

    ``data`` is a square complex matrix (dense storage) or a 1-d vector of
    diagonal entries (diagonal storage).  Scalar multiples, sums and
    operator products are available through the usual Python operators,
    with ``@`` denoting the operator product.
    """

    __slots__ = ("data", "hermitian", "diagonal")

    def __init__(self, data, hermitian: bool = False, diagonal: bool | None = None):
        arr = np.array(data)
        if diagonal is None:
            diagonal = arr.ndim == 1
        if diagonal:
            if arr.ndim != 1 or arr.size == 0:
                raise ShapeError("diagonal storage requires a nonempty vector")
            if np.iscomplexobj(arr):
                if np.max(np.abs(arr.imag)) <= HERM_ATOL * (1.0 + np.max(np.abs(arr.real))):
                    arr = arr.real.astype(np.float64)
                else:
                    arr = arr.astype(np.complex128)
            else:
                arr = arr.astype(np.float64)
            herm_resid = 0.0 if arr.dtype == np.float64 else float(np.max(np.abs(arr.imag)))
        else:
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
                raise ShapeError(f"dense storage requires a square matrix, got {arr.shape}")
            arr = arr.astype(np.complex128)
            herm_resid = float(np.max(np.abs(arr - arr.conj().T))) if hermitian else 0.0
        if hermitian:
            scale = 1.0 + float(np.max(np.abs(arr)))
            if herm_resid > HERM_ATOL * scale:
                raise NclilError(f"hermitian flag set but residual {herm_resid:.3e} exceeds tolerance")
        if not np.all(np.isfinite(arr)):
            raise NclilError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "hermitian", bool(hermitian))
        object.__setattr__(self, "diagonal", bool(diagonal))

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @property
    def dim(self) -> int:
        return int(self.data.shape[0])

    def dense_array(self) -> np.ndarray:
        """Dense complex matrix of entries (copies)."""
        if self.diagonal:
            return np.diag(self.data.astype(np.complex128))
        return np.array(self.data)

    def diag_array(self) -> np.ndarray:
        if not self.diagonal:
            raise ShapeError("operator is not stored diagonally")
        return np.array(self.data)

    def adjoint(self) -> "Operator":
        if self.diagonal:
            return Operator(np.conj(self.data), hermitian=self.hermitian, diagonal=True)
        return Operator(self.data.conj().T, hermitian=self.hermitian)

    def _coerce(self, other: "Operator"):
        if self.dim != other.dim:
            raise ShapeError(f"dimension mismatch {self.dim} vs {other.dim}")
        if self.diagonal and other.diagonal:
            return self.data, other.data, True
        return self.dense_array(), other.dense_array(), False

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        a, b, diag = self._coerce(other)
        return Operator(a + b, hermitian=self.hermitian and other.hermitian, diagonal=diag)

    def __radd__(self, other):
        if other == 0:  # lets sum() start from 0
            return self
        return NotImplemented

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        a, b, diag = self._coerce(other)
        return Operator(a - b, hermitian=self.hermitian and other.hermitian, diagonal=diag)

    def __neg__(self):
        return Operator(-self.data, hermitian=self.hermitian, diagonal=self.diagonal)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        herm = self.hermitian and np.isrealobj(np.asarray(c))
        return Operator(self.data * c, hermitian=bool(herm), diagonal=self.diagonal)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        a, b, diag = self._coerce(other)
        if diag:
            herm = self.hermitian and other.hermitian  # commuting real diagonals
            return Operator(a * b, hermitian=herm, diagonal=True)
        return Operator(a @ b, hermitian=False)

    def __repr__(self):
        kind = "diag" if self.diagonal else "dense"
        return f"Operator({kind}, dim={self.dim}, hermitian={self.hermitian})"


class Projection(Operator):
    """Orthogonal projection: self-adjoint and idempotent within PROJ_ATOL."""

    def __init__(self, data, diagonal: bool | None = None):
        super().__init__(data, hermitian=True, diagonal=diagonal)
        if self.diagonal:
            v = self.data
            resid = float(np.max(np.abs(v * v - v)))
        else:
            a = self.data
            resid = float(np.max(np.abs(a @ a - a)))
        if resid > PROJ_ATOL:
            raise NclilError(f"not idempotent, residual {resid:.3e}")

    @property
    def trace(self) -> float:
        return normalized_trace(self)

    def complement(self) -> "Projection":
        if self.diagonal:
            return Projection(1.0 - self.data, diagonal=True)
        return Projection(np.eye(self.dim) - self.data)


def dense_operator(entries, hermitian: bool = False) -> Operator:
    return Operator(np.asarray(entries), hermitian=hermitian, diagonal=False)


def diagonal_operator(values) -> Operator:
    """Multiplication operator on a finite sample space."""
    vals = np.asarray(values)
    herm = bool(np.isrealobj(vals) or np.max(np.abs(vals.imag)) <= HERM_ATOL * (1.0 + np.max(np.abs(vals.real))))
    return Operator(vals, hermitian=herm, diagonal=True)


def identity(dim: int, diagonal: bool = False) -> Operator:
    if diagonal:
        return Operator(np.ones(dim), hermitian=True, diagonal=True)
    return Operator(np.eye(dim), hermitian=True)


def symmetrize(x: Operator) -> Operator:
    if x.diagonal:
        return Operator(x.data.real if np.iscomplexobj(x.data) else x.data, hermitian=True, diagonal=True)
    a = x.data
    return Operator(0.5 * (a + a.conj().T), hermitian=True)


def normalized_trace(x: Operator):
    """tau(x) = tr(x)/dim; real (with asserted residual) when x is hermitian."""
    if x.diagonal:
        t = np.mean(x.data)
    else:
        t = np.trace(x.data) / x.dim
    if x.hermitian:
        return real_statistic(t, "trace of hermitian operator")
    return complex(t)


def eigenvalues(x: Operator) -> np.ndarray:
    """Ascending real eigenvalues; requires the hermitian flag."""
    if not x.hermitian:
        raise NclilError("eigenvalues requires a hermitian operator")
    if x.diagonal:
        return np.sort(x.data.real.astype(np.float64))
    return np.linalg.eigvalsh(0.5 * (x.data + x.data.conj().T))


def singular_values(x: Operator) -> np.ndarray:
    """Descending singular values."""
    if x.diagonal:
        return np.sort(np.abs(x.data))[::-1]
    if x.hermitian:
        return np.sort(np.abs(np.linalg.eigvalsh(0.5 * (x.data + x.data.conj().T))))[::-1]
    return np.linalg.svd(x.data, compute_uv=False)


def min_eigenvalue(x: Operator) -> float:
    return float(eigenvalues(x)[0])


def lp_norm(x: Operator, p: float) -> float:
    """L_p norm against the normalized trace; p = inf gives the operator norm."""
    p = float(p)
    if p < 1:
        raise NclilError(f"p must be >= 1, got {p}")
    s = singular_values(x)
    if np.isinf(p):
        return float(s[0])
    top = float(s[0])
    if top == 0.0:
        return 0.0
    # factor out the largest value so s**p cannot overflow at large p
    return top * float(np.mean((s / top) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and a unitary of eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


_DECOMP_DIM_CAP = 2048  # materializing eigenvectors beyond this is a bug


def spectral_decomposition(x: Operator) -> SpectralDecomposition:
    if not x.hermitian:
        raise NclilError("spectral decomposition requires a hermitian operator")
    if x.dim > _DECOMP_DIM_CAP:
        raise ShapeError(f"refusing dense eigenvectors at dim {x.dim}")
    if x.diagonal:
        vals = x.data.real.astype(np.float64)
        order = np.argsort(vals, kind="stable")
        vecs = np.eye(x.dim, dtype=np.complex128)[:, order]
        return SpectralDecomposition(vals[order], vecs)
    a = 0.5 * (x.data + x.data.conj().T)
    w, u = np.linalg.eigh(a)
    resid = float(np.max(np.abs((u * w) @ u.conj().T - a)))
    if resid > RECON_TOL * (1.0 + float(np.max(np.abs(a)))):
        raise NclilError(f"eigendecomposition failed to reconstruct, residual {resid:.3e}")
    return SpectralDecomposition(w, u)


def apply_function(x: Operator, f: Callable[[np.ndarray], np.ndarray]) -> Operator:
    """Spectral functional calculus f(x) for hermitian x and real-valued f."""
    if not x.hermitian:
        raise NclilError("functional calculus requires a hermitian operator")
    if x.diagonal:
        vals = x.data.real.astype(np.float64)
        out = _eval_on_spectrum(f, vals)
        return Operator(out, hermitian=True, diagonal=True)
    sd = spectral_decomposition(x)
    out = _eval_on_spectrum(f, sd.eigenvalues)
    u = sd.eigenvectors
    return Operator((u * out) @ u.conj().T, hermitian=True)


def _eval_on_spectrum(f, vals: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(f(vals), dtype=np.float64)
        if out.shape != vals.shape:
            raise TypeError("not vectorized")
    except (TypeError, ValueError):
        try:
            out = np.array([float(f(float(v))) for v in vals])
        except Exception as exc:
            raise DomainError(f"function raised {exc!r} on the spectrum") from exc
    if not np.all(np.isfinite(out)):
        bad = vals[~np.isfinite(out)][0]
        raise DomainError(f"function is undefined at eigenvalue {bad!r}")
    return out


def spectral_projection(x: Operator, lo: float, hi: float) -> Projection:
    """Spectral projection of hermitian x onto the interval (lo, hi].

    Eigenvalues within ENDPOINT_FUZZ of an endpoint are snapped to it, so
    the half-open convention is stable under rounding.
    """
    if not x.hermitian:
        raise NclilError("spectral projection requires a hermitian operator")
    if not lo < hi:
        raise NclilError(f"empty interval ({lo}, {hi}]")
    if x.diagonal:
        vals = x.data.real.astype(np.float64)
        ind = (vals > lo + ENDPOINT_FUZZ) & (vals <= hi + ENDPOINT_FUZZ)
        return Projection(ind.astype(np.float64), diagonal=True)
    sd = spectral_decomposition(x)
    ind = (sd.eigenvalues > lo + ENDPOINT_FUZZ) & (sd.eigenvalues <= hi + ENDPOINT_FUZZ)
    u = sd.eigenvectors
    p = (u * ind.astype(np.float64)) @ u.conj().T
    return Projection(0.5 * (p + p.conj().T))


def pos_part(x: Operator) -> Operator:
    """Positive part of a hermitian operator."""
    return apply_function(x, lambda t: np.clip(t, 0.0, None))


def psd_sqrt(x: Operator) -> Operator:
    """Square root of a nominally psd operator; negative float dust is clipped."""
    floor = -PROJ_ATOL * (1.0 + lp_norm(x, np.inf))
    if min_eigenvalue(x) < floor:
        raise NclilError("operator is not positive semidefinite")
    return apply_function(x, lambda t: np.sqrt(np.clip(t, 0.0, None)))


def singular_number(x: Operator, t: float) -> float:
    """Generalized singular number mu_t(x) for t in (0, 1).

    Against the normalized trace the distribution function of |x| is a
    right-continuous step function jumping at multiples of 1/dim, so the
    infimum closes to the descending singular value with 1-based index
    floor(t*dim) + 1 (zero past the smallest one).  The small additive
    fuzz keeps t*dim stable when t is an exact multiple of 1/dim.
    """
    t = float(t)
    if not 0.0 < t < 1.0:
        raise NclilError(f"t must lie in (0, 1), got {t}")
    j = int(np.floor(t * x.dim + ENDPOINT_FUZZ))
    s = singular_values(x)
    if j >= x.dim:
        return 0.0
    return float(s[j])

