"""Filtered models and their conditional expectations.

Small cases are checked against hand-computed maps; the axiom battery
runs on all three model kinds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclil import (AlgebraModel, ConfigError, Operator,
                   conditional_expectation, lp_norm, normalized_trace,
                   random_full_element, random_level_element, stream_rng,
                   verify_ce_axioms)

from operator_samples import random_hermitian


class TestModel:
    def test_dims(self):
        m = AlgebraModel("tensor", 2, 4)
        assert m.dim == 16
        assert [m.level_dim(k) for k in range(5)] == [1, 2, 4, 8, 16]

    def test_validation(self):
        with pytest.raises(ConfigError):
            AlgebraModel("tensor", 1, 4)
        with pytest.raises(ConfigError):
            AlgebraModel("spooky", 2, 4)
        with pytest.raises(ConfigError):
            AlgebraModel("tensor", 2, 0)

    def test_size_caps(self):
        with pytest.raises(ConfigError):
            AlgebraModel("tensor", 2, 20)
        AlgebraModel("diagonal", 10, 6)   # 1e6 sample points is fine


class TestTensorCE:
    def test_level0_is_trace(self, rng):
        model = AlgebraModel("tensor", 2, 3)
        x = random_hermitian(rng, 8)
        e0 = conditional_expectation(model, x, 0)
        expected = normalized_trace(x) * Operator(np.eye(8), hermitian=True)
        np.testing.assert_allclose(e0.dense_array(), expected.dense_array(), atol=1e-12)

    def test_level_n_is_identity_map(self, rng):
        model = AlgebraModel("tensor", 2, 3)
        x = random_hermitian(rng, 8)
        en = conditional_expectation(model, x, 3)
        np.testing.assert_allclose(en.dense_array(), x.dense_array(), atol=0)

    def test_partial_trace_by_hand(self):
        # E_1 on M_2 (x) M_2 averages the second factor:
        # E_1(a (x) b) = a * tr(b)/2 (x) 1
        model = AlgebraModel("tensor", 2, 2)
        a = np.array([[1.0, 2.0], [2.0, -1.0]])
        b = np.array([[3.0, 0.0], [0.0, 1.0]])
        x = Operator(np.kron(a, b), hermitian=True)
        e1 = conditional_expectation(model, x, 1)
        np.testing.assert_allclose(e1.dense_array(), np.kron(2.0 * a, np.eye(2)), atol=1e-12)

    def test_ce_is_contraction_in_all_p(self, rng):
        model = AlgebraModel("tensor", 2, 4)
        x = random_hermitian(rng, 16)
        for k in range(5):
            ek = conditional_expectation(model, x, k)
            for p in (1.0, 2.0, 4.0, np.inf):
                assert lp_norm(ek, p) <= lp_norm(x, p) + 1e-10


class TestPinchingCE:
    def test_level_k_block_structure(self, rng):
        # after E_k the matrix is m^(n-k) copies of one m^k block
        model = AlgebraModel("pinching", 2, 3)
        x = random_hermitian(rng, 8)
        e1 = conditional_expectation(model, x, 1)
        arr = e1.dense_array()
        blk = arr[:2, :2]
        np.testing.assert_allclose(arr, np.kron(np.eye(4), blk), atol=1e-12)

    def test_by_hand_m2_n1(self):
        model = AlgebraModel("pinching", 2, 1)
        x = Operator(np.array([[1.0, 5.0], [5.0, 3.0]]), hermitian=True)
        e0 = conditional_expectation(model, x, 0)
        np.testing.assert_allclose(e0.dense_array(), 2.0 * np.eye(2), atol=1e-12)
        e1 = conditional_expectation(model, x, 1)
        np.testing.assert_allclose(e1.dense_array(), x.dense_array(), atol=0)

    def test_embedding_nests(self, rng):
        # a level-1 element is a level-2 element with the same CE behavior
        model = AlgebraModel("pinching", 2, 3)
        y = random_level_element(model, 1, rng)
        e1 = conditional_expectation(model, y, 1)
        np.testing.assert_allclose(e1.dense_array(), y.dense_array(), atol=1e-12)


class TestDiagonalCE:
    def test_cell_averaging_by_hand(self):
        model = AlgebraModel("diagonal", 2, 2)
        x = Operator([1.0, 3.0, 5.0, 9.0], hermitian=True)
        e1 = conditional_expectation(model, x, 1)
        np.testing.assert_allclose(e1.data, [2.0, 2.0, 7.0, 7.0])
        e0 = conditional_expectation(model, x, 0)
        np.testing.assert_allclose(e0.data, [4.5] * 4)

    def test_vector_storage_enforced(self, rng):
        model = AlgebraModel("diagonal", 2, 2)
        x = random_hermitian(rng, 4)
        with pytest.raises(Exception):
            conditional_expectation(model, x, 1)

    def test_level_element_shape(self, rng):
        model = AlgebraModel("diagonal", 3, 3)
        y = random_level_element(model, 1, rng)
        v = y.data
        # constant on each of the 3 cells of size 9
        assert np.ptp(v[:9]) == 0 and np.ptp(v[9:18]) == 0


class TestRandomElements:
    @pytest.mark.parametrize("kind,k", [("tensor", 3), ("pinching", 4), ("tensor", 0)])
    def test_level_element_bits_of_the_complex_expression(self, kind, k):
        """The block is (g + g^H) / (2 sqrt d) of g = a + ib, two standard
        normal draws in turn, bit for bit and C-ordered, and the stream ends
        where that expression leaves it."""
        model = AlgebraModel(kind, 2, 4)
        d = model.level_dim(k)
        ref, r = stream_rng(5), stream_rng(5)
        g = ref.standard_normal((d, d)) + 1j * ref.standard_normal((d, d))
        want = (g + g.conj().T) / (2.0 * np.sqrt(d))
        y = random_level_element(model, k, r)
        assert (y.mult, y.hermitian) == (model.dim // d, True)
        assert y.data.flags.c_contiguous
        assert y.data.tobytes() == want.tobytes()
        assert r.standard_normal() == ref.standard_normal()


class TestAxioms:
    @pytest.mark.parametrize("kind,m,n", [
        ("tensor", 2, 4), ("tensor", 3, 2),
        ("pinching", 2, 4), ("pinching", 3, 2),
        ("diagonal", 2, 8), ("diagonal", 10, 3),
    ])
    def test_battery(self, kind, m, n):
        rep = verify_ce_axioms(AlgebraModel(kind, m, n), samples=25, seed=7)
        assert rep.passed, rep.to_json()
        assert rep.worst <= 1e-8

    @given(seed=st.integers(0, 2**31), k=st.integers(0, 3), j=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_tower_property(self, seed, k, j):
        model = AlgebraModel("tensor", 2, 3)
        r = stream_rng(seed)
        x = random_full_element(model, r)
        lo, hi = min(j, k), max(j, k)
        via = conditional_expectation(model, conditional_expectation(model, x, hi), lo)
        direct = conditional_expectation(model, x, lo)
        assert lp_norm(via - direct, np.inf) < 1e-10

    def test_bad_level_rejected(self, rng):
        model = AlgebraModel("tensor", 2, 2)
        x = random_hermitian(rng, 4)
        for k in (-1, 3):
            with pytest.raises(ConfigError):
                conditional_expectation(model, x, k)
