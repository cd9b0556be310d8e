"""Operators on finite noncommutative probability spaces.

The ambient algebra is a matrix algebra carrying the normalized trace
tau = tr/dim, so the identity always has trace one and L_p norms are
computed against tau.  Two storage layouts coexist: dense complex square
matrices, and vectors of diagonal entries for multiplication operators on
a finite sample space.  Mixed arithmetic promotes to dense.

A dense operator may be level-embedded: it stores a block y of size d
and a multiplicity r, and stands for the dim = d*r matrix y (x) 1_r
(layout "tensor") or 1_r (x) y (layout "pinching").  Spectral routines
run on the block, since tau and every L_p norm are the same on y and on
its embedding.

Operators are immutable.  The ``hermitian`` flag is part of the value and
is validated at construction; spectral routines require it.

A multi-threaded OpenBLAS may round a large solve differently from one
thread, so the verify sweeps and ``run_lil_experiment`` run inside
``_one_blas_thread``: one thread, whatever the caller's setting, which
comes back afterwards.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NclilError, ShapeError

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


_LAYOUTS = ("tensor", "pinching")


class Operator:
    """Immutable element of a matrix algebra with normalized trace.

    ``data`` is a square complex matrix (dense storage) or a 1-d vector of
    diagonal entries (diagonal storage).  Scalar multiples, sums and
    operator products are available through the usual Python operators,
    with ``@`` denoting the operator product.

    Dense storage is level-embedded: ``data`` holds a block y and the
    operator is y (x) 1_mult (``layout`` "tensor") or 1_mult (x) y
    (``layout`` "pinching"); with ``mult`` 1 it is y itself and ``layout``
    is None.  ``dim`` is always the ambient dimension.  A sum or product of
    two operators stored at different blocks first lifts the smaller block
    with kron against an identity, which is exact; only ``dense_array()``
    materializes the ambient matrix.
    """

    __slots__ = ("data", "hermitian", "diagonal", "mult", "layout")

    def __init__(self, data, hermitian: bool = False, diagonal: bool | None = None,
                 mult: int = 1, layout: str | None = None):
        arr = np.asarray(data)
        if diagonal is None:
            diagonal = arr.ndim == 1
        if mult != 1:
            if diagonal or mult < 1 or layout not in _LAYOUTS:
                raise ShapeError(f"a level embedding needs dense storage, mult >= 1 and a "
                                 f"layout in {_LAYOUTS}, got mult={mult}, layout={layout!r}")
        else:
            layout = None
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
        else:
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
                raise ShapeError(f"dense storage requires a square matrix, got {arr.shape}")
            arr = np.array(arr, dtype=np.complex128)    # the one copy, in the input's order
        # A non-finite entry makes the scale below inf or nan, so no hermitian
        # residual can fail against it: checking finiteness first changes no verdict.
        if not np.isfinite(arr).all():
            raise NclilError("operator entries must be finite")
        if hermitian:
            if diagonal:
                herm_resid = 0.0 if arr.dtype == np.float64 else float(np.max(np.abs(arr.imag)))
                top = float(np.max(np.abs(arr)))
            else:
                herm_resid, top = _hermitian_extents(arr)
            if herm_resid > HERM_ATOL * (1.0 + top):
                raise NclilError(f"hermitian flag set but residual {herm_resid:.3e} "
                                 f"exceeds tolerance")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "hermitian", bool(hermitian))
        object.__setattr__(self, "diagonal", bool(diagonal))
        object.__setattr__(self, "mult", int(mult))
        object.__setattr__(self, "layout", layout)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @property
    def dim(self) -> int:
        return int(self.data.shape[0]) * self.mult

    def _like(self, data, hermitian: bool) -> "Operator":
        """A dense operator with the same embedding as self."""
        return Operator(data, hermitian=hermitian, mult=self.mult, layout=self.layout)

    def _block_at(self, mult: int) -> np.ndarray:
        """The dense block of self at multiplicity mult (a divisor of self.mult)."""
        if mult == self.mult:
            return self.data
        eye = np.eye(self.mult // mult)
        if self.layout == "tensor":
            return np.kron(self.data, eye)
        return np.kron(eye, self.data)

    def dense_array(self) -> np.ndarray:
        """Dense complex ambient matrix of entries (copies)."""
        if self.diagonal:
            return np.diag(self.data.astype(np.complex128))
        return np.array(self._block_at(1))

    def adjoint(self) -> "Operator":
        if self.diagonal:
            return Operator(np.conj(self.data), hermitian=self.hermitian, diagonal=True)
        return self._like(self.data.conj().T, self.hermitian)

    def _coerce(self, other: "Operator"):
        """Both operands at one common storage: (a, b, diagonal, mult, layout)."""
        if (self.mult == other.mult and self.layout == other.layout
                and self.diagonal == other.diagonal and self.data.shape == other.data.shape):
            return self.data, other.data, self.diagonal, self.mult, self.layout
        if self.dim != other.dim:
            raise ShapeError(f"dimension mismatch {self.dim} vs {other.dim}")
        if self.diagonal or other.diagonal:
            return self.dense_array(), other.dense_array(), False, 1, None
        mult, layout = _common_embedding((self, other))
        return self._block_at(mult), other._block_at(mult), False, mult, layout

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        a, b, diag, mult, layout = self._coerce(other)
        return Operator(_into_lift(np.add, a, b), hermitian=self.hermitian and other.hermitian,
                        diagonal=diag, mult=mult, layout=layout)

    def __radd__(self, other):
        if other == 0:  # lets sum() start from 0
            return self
        return NotImplemented

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        a, b, diag, mult, layout = self._coerce(other)
        return Operator(_into_lift(np.subtract, a, b), hermitian=self.hermitian and other.hermitian,
                        diagonal=diag, mult=mult, layout=layout)

    def __neg__(self):
        return Operator(-self.data, hermitian=self.hermitian, diagonal=self.diagonal,
                        mult=self.mult, layout=self.layout)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        herm = self.hermitian and np.isrealobj(np.asarray(c))
        return Operator(self.data * c, hermitian=bool(herm), diagonal=self.diagonal,
                        mult=self.mult, layout=self.layout)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        a, b, diag, mult, layout = self._coerce(other)
        if diag:
            herm = self.hermitian and other.hermitian  # commuting real diagonals
            return Operator(a * b, hermitian=herm, diagonal=True)
        return Operator(a @ b, hermitian=False, mult=mult, layout=layout)

    def __repr__(self):
        kind = "diag" if self.diagonal else "dense"
        level = f", block={self.data.shape[0]}, {self.layout}" if self.mult > 1 else ""
        return f"Operator({kind}, dim={self.dim}{level}, hermitian={self.hermitian})"


_ROW_BLOCK = 1 << 14    # entries per row block of the hermitian check: one block to 128 rows


def _hermitian_extents(a: np.ndarray) -> tuple[float, float]:
    """(max|a - a^H|, max|a|) of a square matrix, taken over row blocks.

    The maxima are exactly the whole-array ones, but no temporary is larger
    than a block of _ROW_BLOCK entries.
    """
    n = len(a)
    step = max(1, _ROW_BLOCK // n)
    resid = top = 0.0
    for i in range(0, n, step):
        rows = a[i:i + step]
        diff = np.conjugate(rows)       # |conj(x) - y| has the bits of |x - conj(y)|
        np.subtract(diff, a[:, i:i + step].T, out=diff)
        resid = max(resid, float(np.abs(diff).max()))
        top = max(top, float(np.abs(rows).max()))
    return resid, top


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """0.5 * (a + a^H) of a float or complex square array, bit for bit, in one array.

    The sum is formed as conj(a^T) + a, which complex addition makes the
    same bits.  The result is C-ordered whatever the order of a, as that
    expression's is: BLAS may round an operand of another order differently.
    """
    out = np.conjugate(a.T, order="C")
    out += a
    out *= 0.5
    return out


def _into_lift(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ufunc(a, b) of two operands from ``_coerce``, written into one that it lifted.

    Stored data is read-only, so a writeable operand is a fresh complex lift
    that nothing else holds.  Only a C-ordered one is written into: ufunc(a,
    b) is C-ordered unless both operands are F-ordered, and the result keeps
    its bits and its order either way.
    """
    for out in (a, b):
        if out.flags.writeable and out.flags.c_contiguous:
            return ufunc(a, b, out=out)
    return ufunc(a, b)


def _common_embedding(xs) -> tuple:
    """(mult, layout) of the largest common storage of dense operators xs.

    That is the smallest multiplicity among them when they share a layout
    and it divides every multiplicity, else the ambient matrix.
    """
    mult = min(x.mult for x in xs)
    layouts = {x.layout for x in xs if x.mult > 1}
    if mult == 1 or len(layouts) != 1 or any(x.mult % mult for x in xs):
        return 1, None
    return mult, layouts.pop()


def lift_common(xs: Sequence[Operator]) -> list:
    """The dense operators xs, each stored at the family's largest common block.

    Lifting is exact: the ambient matrices do not change.
    """
    xs = list(xs)
    mult, layout = _common_embedding(xs)
    return [x if x.mult == mult else
            Operator(x._block_at(mult), hermitian=x.hermitian, mult=mult, layout=layout)
            for x in xs]


class Projection(Operator):
    """Orthogonal projection: self-adjoint and idempotent within PROJ_ATOL."""

    def __init__(self, data, diagonal: bool | None = None, mult: int = 1,
                 layout: str | None = None):
        super().__init__(data, hermitian=True, diagonal=diagonal, mult=mult, layout=layout)
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
        return Projection(np.eye(self.data.shape[0]) - self.data, mult=self.mult,
                          layout=self.layout)


def symmetrize(x: Operator) -> Operator:
    if x.diagonal:
        return Operator(x.data.real if np.iscomplexobj(x.data) else x.data, hermitian=True, diagonal=True)
    return x._like(_hermitian_part(x.data), True)


def abs_square(x: Operator) -> Operator:
    """|x|^2 = x^* x, symmetrized: ``symmetrize(x.adjoint() @ x)`` bit for bit.

    A dense x takes one product of raw blocks, laid out as the adjoint's and
    so rounded by BLAS the same, without the adjoint and the product as
    operators of their own.
    """
    if x.diagonal:
        return symmetrize(x.adjoint() @ x)
    a = x.data
    return x._like(_hermitian_part(a.conj().T @ a), True)


def normalized_trace(x: Operator):
    """tau(x) = tr(x)/dim; real (with asserted residual) when x is hermitian."""
    if x.diagonal:
        t = np.mean(x.data)
    else:
        t = np.trace(x.data) / x.data.shape[0]
    if x.hermitian:
        return real_statistic(t, "trace of hermitian operator")
    return complex(t)


def eigenvalues(x: Operator) -> np.ndarray:
    """Ascending real eigenvalues of the stored block; requires the hermitian flag.

    Each one has multiplicity ``x.mult`` in the ambient operator.
    """
    if not x.hermitian:
        raise NclilError("eigenvalues requires a hermitian operator")
    if x.diagonal:
        return np.sort(x.data.real.astype(np.float64))
    return np.linalg.eigvalsh(_hermitian_part(x.data))


def singular_values(x: Operator) -> np.ndarray:
    """Descending singular values of the stored block (multiplicity ``x.mult``)."""
    if x.diagonal:
        return np.sort(np.abs(x.data))[::-1]
    if x.hermitian:
        return np.sort(np.abs(np.linalg.eigvalsh(_hermitian_part(x.data))))[::-1]
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
    """Eigenvalues (ascending) and a unitary of eigenvectors (columns).

    For a level-embedded operator both belong to the stored block.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


_DECOMP_DIM_CAP = 2048  # materializing eigenvectors of a larger block is a bug


def spectral_decomposition(x: Operator) -> SpectralDecomposition:
    if not x.hermitian:
        raise NclilError("spectral decomposition requires a hermitian operator")
    if x.data.shape[0] > _DECOMP_DIM_CAP:
        raise ShapeError(f"refusing dense eigenvectors at block dim {x.data.shape[0]}")
    if x.diagonal:
        vals = x.data.real.astype(np.float64)
        order = np.argsort(vals, kind="stable")
        vecs = np.eye(x.dim, dtype=np.complex128)[:, order]
        return SpectralDecomposition(vals[order], vecs)
    return SpectralDecomposition(*hermitian_eigh(x.data))


def hermitian_eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, u) = eigh of 0.5*(block + block^H), checked to reconstruct within RECON_TOL.

    The raw-array core of ``spectral_decomposition``, for callers that hold
    a dense block rather than an ``Operator``.  The residual
    max|u diag(w) u^H - a| and the scale max|a| are taken over row blocks
    of at most _ROW_BLOCK entries, as in ``_hermitian_extents``: rows i of
    the product are conj(conj(u_i) w u^T), so no full-size temporary is
    formed beside a and the returned pair.
    """
    a = _hermitian_part(block)
    w, u = np.linalg.eigh(a)
    n = len(a)
    step = max(1, _ROW_BLOCK // n)
    resid = top = 0.0
    for i in range(0, n, step):
        r = np.conjugate(u[i:i + step])
        r *= w
        r = r @ u.T
        np.conjugate(r, out=r)
        r -= a[i:i + step]
        resid = max(resid, float(np.abs(r).max()))
        top = max(top, float(np.abs(a[i:i + step]).max()))
    if resid > RECON_TOL * (1.0 + top):
        raise NclilError(f"eigendecomposition failed to reconstruct, residual {resid:.3e}")
    return w, u


def apply_function(x: Operator, f: Callable[[np.ndarray], np.ndarray]) -> Operator:
    """Spectral functional calculus f(x) for hermitian x; f maps the array of
    eigenvalues to finite real values elementwise (``np.sqrt``, not ``math.sqrt``)."""
    if not x.hermitian:
        raise NclilError("functional calculus requires a hermitian operator")
    if x.diagonal:
        vals = x.data.real.astype(np.float64)
        out = _eval_on_spectrum(f, vals)
        return Operator(out, hermitian=True, diagonal=True)
    sd = spectral_decomposition(x)
    out = _eval_on_spectrum(f, sd.eigenvalues)
    u = sd.eigenvectors
    return x._like((u * out) @ u.conj().T, True)


def _eval_on_spectrum(f, vals: np.ndarray) -> np.ndarray:
    out = np.asarray(f(vals), dtype=np.float64)
    if out.shape != vals.shape:
        raise NclilError(f"function must act elementwise on the spectrum, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        bad = vals[~np.isfinite(out)][0]
        raise NclilError(f"function is undefined at eigenvalue {bad!r}")
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
    return Projection(_hermitian_part(p), mult=x.mult, layout=x.layout)


def psd_sqrt(x: Operator) -> Operator:
    """Square root of a nominally psd operator; negative float dust is clipped."""
    ev = eigenvalues(x)
    floor = -PROJ_ATOL * (1.0 + float(max(abs(ev[0]), abs(ev[-1]))))
    if ev[0] < floor:
        raise NclilError("operator is not positive semidefinite")
    return apply_function(x, lambda t: np.sqrt(np.clip(t, 0.0, None)))


def singular_number(x: Operator, t: float) -> float:
    """Generalized singular number mu_t(x) for t in (0, 1).

    Against the normalized trace the distribution function of |x| is a
    right-continuous step function jumping at multiples of 1/dim, so the
    infimum closes to the descending singular value with 1-based index
    floor(t*dim) + 1 (zero past the smallest one).  The small additive
    fuzz keeps t*dim stable when t is an exact multiple of 1/dim.  Each
    singular value of the stored block repeats ``x.mult`` times.
    """
    t = float(t)
    if not 0.0 < t < 1.0:
        raise NclilError(f"t must lie in (0, 1), got {t}")
    j = int(np.floor(t * x.dim + ENDPOINT_FUZZ))
    s = singular_values(x)
    if j >= x.dim:
        return 0.0
    return float(s[j // x.mult])


_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads", "openblas_get_num_threads")


@functools.lru_cache(maxsize=None)
def _openblas() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS this process has loaded.

    numpy's is among them.  The libraries are looked up among the files the
    process has mapped (Linux only); where none is found, nothing is pinned.
    """
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_GETTERS:
            get = getattr(lib, name, None)
            put = getattr(lib, name.replace("_get_", "_set_"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread for the body, then restore the caller's counts.

    Yields 1, or None when no OpenBLAS was found and nothing is pinned.
    """
    libs = _openblas()
    before = [get() for get, _ in libs]
    _pin_one_thread()
    try:
        yield 1 if libs else None
    finally:
        for (_, put), threads in zip(libs, before):
            put(threads)


def _pin_one_thread() -> None:
    """Pool initializer, and the pin itself: every OpenBLAS to one thread."""
    for _, put in _openblas():
        put(1)
