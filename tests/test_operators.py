"""Operator layer: trace, norms, functional calculus, singular numbers.

The singular-number closed form is checked against a brute-force scan of
the defining infimum, computed here from scratch via numpy's svd so the
two routes share no code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclil import (NclilError, Operator, Projection, ShapeError,
                   apply_function, dense_operator, diagonal_operator,
                   eigenvalues, identity, lp_norm, min_eigenvalue,
                   normalized_trace, operator_from_json, operator_to_json,
                   pos_part, psd_sqrt, singular_number, singular_values,
                   spectral_decomposition, spectral_projection, stream_rng,
                   symmetrize)

from conftest import random_diag, random_general, random_hermitian


def brute_singular_number(mat: np.ndarray, t: float, step: float) -> float:
    """inf{s >= 0 : #(sigma_i > s)/d <= t} scanned on an s-grid."""
    sv = np.linalg.svd(mat, compute_uv=False)
    d = mat.shape[0]
    grid = np.arange(0.0, sv.max() + 2 * step, step)
    counts = (sv[None, :] > grid[:, None]).sum(axis=1) / d
    hits = np.nonzero(counts <= t)[0]
    return float(grid[hits[0]])


class TestConstruction:
    def test_dense_requires_square(self):
        with pytest.raises(ShapeError):
            dense_operator(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            dense_operator(np.ones((0, 0)))

    def test_hermitian_flag_checked(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NclilError):
            dense_operator(bad, hermitian=True)

    def test_nan_rejected(self):
        with pytest.raises(NclilError):
            dense_operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(NclilError):
            diagonal_operator(np.array([1.0, np.inf]))

    def test_immutable(self, rng):
        x = random_hermitian(rng, 4)
        with pytest.raises(AttributeError):
            x.hermitian = False
        with pytest.raises(ValueError):
            x.data[0, 0] = 5.0

    def test_diag_storage_stays_real(self):
        x = diagonal_operator(np.array([1.0, -2.0]) + 0j)
        assert x.diagonal and x.hermitian
        assert x.data.dtype == np.float64

    def test_identity_and_zero(self):
        i4 = identity(4)
        assert normalized_trace(i4) == 1.0
        idl = identity(4, diagonal=True)
        assert idl.diagonal
        assert lp_norm(i4 - i4, np.inf) == 0.0


class TestArithmetic:
    def test_mixed_storage_promotes(self, rng):
        a = random_diag(rng, 5)
        b = random_hermitian(rng, 5)
        c = a + b
        assert not c.diagonal and c.hermitian
        np.testing.assert_allclose(c.dense_array(), a.dense_array() + b.dense_array())

    def test_diag_product_elementwise(self):
        a = diagonal_operator([1.0, 2.0])
        b = diagonal_operator([3.0, -1.0])
        c = a @ b
        assert c.diagonal
        np.testing.assert_allclose(c.diag_array(), [3.0, -2.0])

    def test_scalar_and_sum_protocol(self, rng):
        x = random_hermitian(rng, 3)
        y = sum([x, 2.0 * x, x * -1.0])   # radd with 0 start
        np.testing.assert_allclose(y.dense_array(), 2.0 * x.dense_array(), atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ShapeError):
            random_hermitian(rng, 3) + random_hermitian(rng, 4)

    def test_adjoint_of_noncontiguous_product(self, rng):
        x = random_general(rng, 4)
        y = x.adjoint() @ x
        assert min_eigenvalue(symmetrize(y)) > -1e-10


class TestTraceAndNorms:
    def test_trace_normalization(self, rng):
        x = random_hermitian(rng, 6)
        assert abs(normalized_trace(identity(6)) - 1.0) < 1e-15
        assert abs(normalized_trace(x) - np.trace(x.dense_array()).real / 6) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_traciality(self, seed, d):
        r = np.random.default_rng(seed)
        g1 = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
        g2 = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
        x, y = dense_operator(g1), dense_operator(g2)
        lhs = normalized_trace(x @ y)
        rhs = normalized_trace(y @ x)
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_holder_12(self, seed, d):
        # ||xy||_1 <= ||x||_2 ||y||_2
        r = np.random.default_rng(seed)
        x = dense_operator(r.standard_normal((d, d)))
        y = dense_operator(r.standard_normal((d, d)))
        assert lp_norm(x @ y, 1) <= lp_norm(x, 2) * lp_norm(y, 2) + 1e-10

    def test_lp_vs_numpy(self, rng):
        x = random_general(rng, 7)
        m = x.dense_array()
        sv = np.linalg.svd(m, compute_uv=False)
        assert abs(lp_norm(x, np.inf) - sv[0]) < 1e-12
        assert abs(lp_norm(x, 2) - math.sqrt((sv ** 2).mean())) < 1e-12
        assert abs(lp_norm(x, 1) - sv.mean()) < 1e-12

    def test_lp_monotone_in_p(self, rng):
        x = random_hermitian(rng, 8)
        ps = [1.0, 1.5, 2.0, 4.0, 8.0, np.inf]
        vals = [lp_norm(x, p) for p in ps]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_lp_overflow_safe(self):
        x = diagonal_operator([1e200, 1e199])
        assert np.isfinite(lp_norm(x, 4))

    def test_lp_rejects_bad_p(self, rng):
        with pytest.raises(NclilError):
            lp_norm(random_hermitian(rng, 2), 0.5)


class TestSpectral:
    def test_eigenvalues_ascending(self, rng):
        x = random_hermitian(rng, 9)
        ev = eigenvalues(x)
        assert np.all(np.diff(ev) >= 0)
        np.testing.assert_allclose(ev, np.linalg.eigvalsh(x.dense_array()), atol=1e-10)

    def test_decomposition_reconstructs(self, rng):
        x = random_hermitian(rng, 8)
        dec = spectral_decomposition(x)
        np.testing.assert_allclose(dec.reconstruct(), x.dense_array(), atol=1e-9)
        u = dec.eigenvectors
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-10)

    def test_diag_decomposition_sorted(self):
        x = diagonal_operator([3.0, -1.0, 2.0])
        dec = spectral_decomposition(x)
        assert list(dec.eigenvalues) == [-1.0, 2.0, 3.0]
        np.testing.assert_allclose(dec.reconstruct(), np.diag([3.0, -1.0, 2.0]), atol=0)

    def test_apply_function_polynomial(self, rng):
        x = random_hermitian(rng, 6)
        m = x.dense_array()
        y = apply_function(x, lambda v: v ** 3 - 2.0 * v)
        np.testing.assert_allclose(y.dense_array(), m @ m @ m - 2.0 * m, atol=1e-8)

    def test_apply_function_domain_error(self):
        from nclil import DomainError
        x = diagonal_operator([-1.0, 1.0])
        with pytest.raises(DomainError):
            apply_function(x, math.sqrt)

    def test_exp_matches_scipy_free_route(self, rng):
        # e^x via eigendecomposition against a Taylor sum
        x = random_hermitian(rng, 5, scale=0.3)
        m = x.dense_array()
        acc = np.eye(5, dtype=complex)
        term = np.eye(5, dtype=complex)
        for k in range(1, 40):
            term = term @ m / k
            acc += term
        np.testing.assert_allclose(apply_function(x, np.exp).dense_array(), acc, atol=1e-10)

    def test_psd_sqrt_and_abs(self, rng):
        x = random_hermitian(rng, 6)
        a = apply_function(x, np.abs)
        assert min_eigenvalue(a) >= -1e-10
        s = psd_sqrt(a)
        np.testing.assert_allclose((s @ s).dense_array(), a.dense_array(), atol=1e-8)
        with pytest.raises(NclilError):
            psd_sqrt(diagonal_operator([-1.0, 1.0]))

    def test_pos_part(self):
        x = diagonal_operator([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(pos_part(x).diag_array(), [0.0, 0.0, 3.0])


class TestProjections:
    def test_projection_validates(self):
        with pytest.raises(NclilError):
            Projection(np.array([[0.5, 0.0], [0.0, 1.0]]))
        p = Projection(np.array([1.0, 0.0, 1.0]), diagonal=True)
        assert abs(p.trace - 2.0 / 3.0) < 1e-15

    def test_complement(self):
        p = Projection(np.array([1.0, 0.0]), diagonal=True)
        q = p.complement()
        assert abs(p.trace + q.trace - 1.0) < 1e-15
        np.testing.assert_allclose((p @ q).diag_array(), [0.0, 0.0])

    def test_spectral_projection_ranges(self, rng):
        x = random_hermitian(rng, 8)
        ev = eigenvalues(x)
        full = spectral_projection(x, -np.inf, ev[-1])
        assert abs(full.trace - 1.0) < 1e-12
        below = spectral_projection(x, -np.inf, ev[3])
        assert abs(below.trace - 4.0 / 8.0) < 1e-12
        # endpoint inclusion despite rounding fuzz
        nudged = spectral_projection(x, -np.inf, ev[3] - 1e-14)
        assert abs(nudged.trace - below.trace) < 1e-12

    def test_spectral_projection_commutes(self, rng):
        x = random_hermitian(rng, 6)
        p = spectral_projection(x, 0.0, np.inf)
        lhs = (p @ x).dense_array()
        rhs = (x @ p).dense_array()
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestSingularNumbers:
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 16),
           t=st.floats(1e-4, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed, d, t):
        r = np.random.default_rng(seed)
        m = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
        x = dense_operator(m)
        step = 1e-4 * lp_norm(x, np.inf)
        closed = singular_number(x, t)
        brute = brute_singular_number(m, t, step)
        assert abs(closed - brute) <= step + 1e-12

    def test_step_function_identity(self, rng):
        # (1/d) sum sigma_i^p = integral of mu_t^p over (0, 1)
        x = random_general(rng, 6)
        p = 3.0
        ts = (np.arange(6) + 0.5) / 6.0
        integral = np.mean([singular_number(x, float(t)) ** p for t in ts])
        assert abs(integral - lp_norm(x, p) ** p) < 1e-9

    def test_right_continuity_at_jumps(self):
        x = diagonal_operator([3.0, 2.0, 1.0])
        # at t = 1/3 exactly, the count condition admits sigma_2
        assert singular_number(x, 1.0 / 3.0) == 2.0
        assert singular_number(x, 1.0 / 3.0 - 1e-9) == 3.0
        assert singular_number(x, 2.0 / 3.0) == 1.0

    def test_domain(self):
        x = diagonal_operator([1.0])
        for t in (-0.1, 0.0, 1.0, 1.5):
            with pytest.raises(NclilError):
                singular_number(x, t)

    def test_singular_values_descending(self, rng):
        x = random_general(rng, 5)
        sv = singular_values(x)
        assert np.all(np.diff(sv) <= 0)


class TestSerialization:
    def test_dense_roundtrip(self, rng):
        x = random_hermitian(rng, 5)
        y = operator_from_json(operator_to_json(x))
        assert y.hermitian
        np.testing.assert_allclose(y.dense_array(), x.dense_array())

    def test_diag_roundtrip(self):
        x = diagonal_operator([1.0, -2.5])
        blob = operator_to_json(x)
        assert "diag" in blob
        y = operator_from_json(blob)
        assert y.diagonal
        np.testing.assert_allclose(y.diag_array(), x.diag_array())
