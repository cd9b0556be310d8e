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
                   apply_function, eigenvalues, lp_norm,
                   min_eigenvalue, normalized_trace, psd_sqrt,
                   singular_values, spectral_decomposition,
                   spectral_projection, stream_rng, symmetrize)
from nclil import inequalities as ineq
from nclil.operators import (_hermitian_extents, _hermitian_part, abs_square,
                             hermitian_eigh, singular_number)

from operator_samples import random_diag, random_general, random_hermitian


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
            Operator(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            Operator(np.ones((0, 0)))

    def test_hermitian_flag_checked(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NclilError):
            Operator(bad, hermitian=True)

    def test_nan_rejected(self):
        with pytest.raises(NclilError):
            Operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(NclilError):
            Operator(np.array([1.0, np.inf]), hermitian=True)

    def test_immutable(self, rng):
        x = random_hermitian(rng, 4)
        with pytest.raises(AttributeError):
            x.hermitian = False
        with pytest.raises(ValueError):
            x.data[0, 0] = 5.0

    def test_diag_storage_stays_real(self):
        x = Operator(np.array([1.0, -2.0]) + 0j, hermitian=True)
        assert x.diagonal and x.hermitian
        assert x.data.dtype == np.float64

    def test_identity_and_zero(self):
        i4 = Operator(np.eye(4), hermitian=True)
        assert normalized_trace(i4) == 1.0
        idl = Operator(np.ones(4), hermitian=True, diagonal=True)
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
        a = Operator([1.0, 2.0], hermitian=True)
        b = Operator([3.0, -1.0], hermitian=True)
        c = a @ b
        assert c.diagonal
        np.testing.assert_allclose(c.data, [3.0, -2.0])

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


def _same_array(got, want):
    """Equal bits, dtype, shape and memory order."""
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == \
           (want.flags.c_contiguous, want.flags.f_contiguous)
    assert got.tobytes(order="A") == want.tobytes(order="A")


class TestOneCopy:
    """Dense blocks are formed once, with the bits and the memory order of
    the full-size expressions they replace."""

    @staticmethod
    def block(rng, n):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g[0, 1], g[1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)   # signed zeros
        return g

    @pytest.mark.parametrize("layout", ["C", "F", "slice", "step", "real"])
    def test_hermitian_part_bitwise(self, rng, layout):
        a = self.block(rng, 9)
        big = np.tile(a, (2, 2))
        a = {"C": a, "F": np.asfortranarray(a), "slice": big[1:10, 3:12],
             "step": big[::2, ::2], "real": np.ascontiguousarray(a.real)}[layout]
        _same_array(_hermitian_part(a), 0.5 * (a + a.conj().T))

    @pytest.mark.parametrize("n", [1, 16, 128, 200])
    def test_hermitian_extents_are_the_whole_array_maxima(self, rng, n):
        """200 rows take three row blocks (81, 81, 38); the asymmetry and the
        largest entry sit in the last one."""
        a = self.block(rng, n) if n > 1 else np.array([[2.0 - 1.0j]])
        a = a + a.conj().T
        a[-1, 0] += 1e-3 - 2e-3j
        a[-1, -1] = 9.0
        want = (float(np.max(np.abs(a - a.conj().T))), float(np.max(np.abs(a))))
        assert _hermitian_extents(a) == want

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_construction_copies_and_keeps_order(self, rng, order):
        h = self.block(rng, 6)
        arr = np.array(h + h.conj().T, order=order)
        x = Operator(arr, hermitian=True)
        assert not np.shares_memory(x.data, arr)
        assert arr.flags.writeable and not x.data.flags.writeable
        assert x.data.flags.f_contiguous == (order == "F")
        before = x.data.copy()
        arr[0, 0] += 1.0
        np.testing.assert_array_equal(x.data, before)

    def test_sums_write_into_the_lift_only(self, rng):
        """x + y and x - y of operators at two levels: the lifted block is the
        sum's storage, the stored blocks are untouched, and the bits are those
        of the lifted expression."""
        x = Operator(self.block(rng, 2), mult=4, layout="tensor")
        y = Operator(self.block(rng, 4), mult=2, layout="tensor")
        xs, ys = x.data.copy(), y.data.copy()
        lift = x._block_at(2)
        for got, want in ((x + y, lift + y.data), (x - y, lift - y.data),
                          (y - x, y.data - lift), (y + x, y.data + lift)):
            assert (got.mult, got.layout) == (2, "tensor")
            _same_array(got.data, want)
        np.testing.assert_array_equal(x.data, xs)
        np.testing.assert_array_equal(y.data, ys)

    def test_mixed_storage_sum_keeps_the_order(self, rng):
        """An F-ordered dense operand and a diagonal one are both written out
        fresh; the sum goes into the C-ordered one, as a + b is C-ordered."""
        f = random_general(rng, 5).adjoint()
        d = random_diag(rng, 5)
        assert f.data.flags.f_contiguous and not f.data.flags.c_contiguous
        for got, want in ((f + d, f.dense_array() + d.dense_array()),
                          (f - d, f.dense_array() - d.dense_array()),
                          (d - f, d.dense_array() - f.dense_array())):
            _same_array(got.data, want)

    def test_abs_square_bitwise(self, rng):
        """Level-embedded, F-ordered (an adjoint's) and diagonal operands."""
        embedded = Operator(self.block(rng, 4), mult=2, layout="pinching")
        for x in (embedded, random_general(rng, 5).adjoint(), random_diag(rng, 5)):
            got, want = abs_square(x), symmetrize(x.adjoint() @ x)
            assert (got.hermitian, got.diagonal, got.mult, got.layout) == \
                   (want.hermitian, want.diagonal, want.mult, want.layout)
            _same_array(got.data, want.data)


class TestTraceAndNorms:
    def test_trace_normalization(self, rng):
        x = random_hermitian(rng, 6)
        assert abs(normalized_trace(Operator(np.eye(6), hermitian=True)) - 1.0) < 1e-15
        assert abs(normalized_trace(x) - np.trace(x.dense_array()).real / 6) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_traciality(self, seed, d):
        r = np.random.default_rng(seed)
        g1 = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
        g2 = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
        x, y = Operator(g1), Operator(g2)
        lhs = normalized_trace(x @ y)
        rhs = normalized_trace(y @ x)
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_holder_12(self, seed, d):
        # ||xy||_1 <= ||x||_2 ||y||_2
        r = np.random.default_rng(seed)
        x = Operator(r.standard_normal((d, d)))
        y = Operator(r.standard_normal((d, d)))
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
        x = Operator([1e200, 1e199], hermitian=True)
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

    @pytest.mark.parametrize("n", [8, 200])
    def test_hermitian_eigh_is_eigh_of_the_hermitian_part(self, rng, n):
        """At 200 rows the residual runs over row blocks of 81 rows (the last
        38); the pair returned is numpy's eigh of 0.5 (a + a^H)."""
        for block in (rng.standard_normal((n, n)),
                      rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))):
            w, u = hermitian_eigh(block)
            ref_w, ref_u = np.linalg.eigh(0.5 * (block + block.conj().T))
            np.testing.assert_array_equal(w, ref_w)
            np.testing.assert_array_equal(u, ref_u)

    @pytest.mark.parametrize("n, row", [(8, 3), (200, 0), (200, 130), (200, 199)])
    def test_hermitian_eigh_rejects_a_perturbed_decomposition(self, rng, monkeypatch, n, row):
        """An eigenvector entry moved by 1e-6 breaks the reconstruction by far
        more than RECON_TOL, in whichever row block it lands."""
        eigh = np.linalg.eigh

        def perturbed(a):
            w, u = eigh(a)
            u[row, n // 2] += 1e-6
            return w, u

        block = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        hermitian_eigh(block)
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(NclilError, match="failed to reconstruct"):
            hermitian_eigh(block)

    def test_diag_decomposition_sorted(self):
        x = Operator([3.0, -1.0, 2.0], hermitian=True)
        dec = spectral_decomposition(x)
        assert list(dec.eigenvalues) == [-1.0, 2.0, 3.0]
        np.testing.assert_allclose(dec.reconstruct(), np.diag([3.0, -1.0, 2.0]), atol=0)

    def test_apply_function_polynomial(self, rng):
        x = random_hermitian(rng, 6)
        m = x.dense_array()
        y = apply_function(x, lambda v: v ** 3 - 2.0 * v)
        np.testing.assert_allclose(y.dense_array(), m @ m @ m - 2.0 * m, atol=1e-8)

    def test_apply_function_domain_error(self):
        """A function undefined somewhere on the spectrum gives no operator."""
        x = Operator([-1.0, 1.0], hermitian=True)
        with np.errstate(invalid="ignore"), pytest.raises(NclilError, match="undefined"):
            apply_function(x, np.sqrt)
        with pytest.raises(NclilError, match="elementwise"):
            apply_function(x, lambda v: 1.0)

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
            psd_sqrt(Operator([-1.0, 1.0], hermitian=True))

    def test_pos_part(self):
        """The certificate search's positive part of a raw diagonal or dense block."""
        np.testing.assert_array_equal(ineq._pos_part(np.array([-2.0, 0.0, 3.0])),
                                      [0.0, 0.0, 3.0])
        a = np.array([[0.5, 1.5], [1.5, 0.5]])            # eigenvalues 2 and -1
        np.testing.assert_allclose(ineq._pos_part(a), np.ones((2, 2)), atol=1e-14)


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
        np.testing.assert_allclose((p @ q).data, [0.0, 0.0])

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
        x = Operator(m)
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
        x = Operator([3.0, 2.0, 1.0], hermitian=True)
        # at t = 1/3 exactly, the count condition admits sigma_2
        assert singular_number(x, 1.0 / 3.0) == 2.0
        assert singular_number(x, 1.0 / 3.0 - 1e-9) == 3.0
        assert singular_number(x, 2.0 / 3.0) == 1.0

    def test_domain(self):
        x = Operator([1.0], hermitian=True)
        for t in (-0.1, 0.0, 1.0, 1.5):
            with pytest.raises(NclilError):
                singular_number(x, t)

    def test_singular_values_descending(self, rng):
        x = random_general(rng, 5)
        sv = singular_values(x)
        assert np.all(np.diff(sv) <= 0)
