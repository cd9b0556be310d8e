"""Martingale generators, bracket profiles, stopping rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclil import (AlgebraModel, ConfigError, NclilError, bracket_norms,
                   gen_diagonal_martingale, gen_model_martingale,
                   gen_tensor_martingale, gue_matrix, iterlog, iterlog_seq,
                   law_variance_factor, lp_norm, normalized_trace,
                   sample_step_increments, stopping_indices, stream_rng,
                   validate_differences)

E_E = math.exp(math.e)


class TestIterlog:
    def test_clamps_to_one(self):
        for x in (1e-9, 0.5, 1.0, math.e, E_E):
            assert iterlog(x) == 1.0

    def test_smooth_beyond_clamp(self):
        assert abs(iterlog(math.exp(math.exp(2.0))) - 2.0) < 1e-12
        x = E_E * (1 + 1e-9)
        assert 1.0 <= iterlog(x) < 1.0 + 1e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(NclilError):
            iterlog(0.0)
        with pytest.raises(NclilError):
            iterlog_seq([1.0, -2.0])

    @given(x=st.floats(1e-6, 1e12))
    @settings(max_examples=50)
    def test_seq_matches_scalar(self, x):
        assert iterlog_seq([x])[0] == iterlog(x)


class TestSampling:
    @pytest.mark.parametrize("law", ["rademacher", "uniform"])
    def test_exact_balance(self, law):
        rng = stream_rng(3)
        block = sample_step_increments(rng, law, 0.7, paths=64, steps=40)
        assert block.shape == (40, 64)
        np.testing.assert_allclose(block.sum(axis=1), 0.0, atol=1e-12)
        assert np.max(np.abs(block)) <= 0.7 + 1e-15

    def test_rademacher_values(self):
        rng = stream_rng(3)
        block = sample_step_increments(rng, "rademacher", 2.0, paths=8, steps=5)
        assert set(np.unique(block)) == {-2.0, 2.0}

    def test_odd_paths_rejected(self):
        rng = stream_rng(0)
        with pytest.raises(ConfigError):
            sample_step_increments(rng, "rademacher", 1.0, paths=7)

    def test_variance_factor(self):
        assert law_variance_factor("rademacher") == 1.0
        assert abs(law_variance_factor("uniform") - 1.0 / 3.0) < 1e-15


class TestStoppingRule:
    def test_postconditions(self):
        rng = stream_rng(12)
        s2 = np.cumsum(rng.uniform(0.1, 2.0, size=400))
        eta = 1.3
        rule = stopping_indices(s2, eta)
        assert rule.ks[0] == 0
        for n in range(1, len(rule.ks)):
            k = int(rule.ks[n])
            thr = eta ** (2 * n)
            assert s2[k] >= thr            # s2[k] is s^2_{k+1}
            if k > 0:
                assert s2[k - 1] < thr     # s^2_{k_n} < eta^(2n)

    def test_block_ranges_partition(self):
        s2 = np.arange(1.0, 2001.0)
        rule = stopping_indices(s2, 1.5)
        steps = []
        for n in range(1, rule.blocks + 1):
            steps.extend(rule.block_steps(n))
        assert steps == list(range(int(rule.ks[1]) + 1, int(rule.ks[-1]) + 1))

    def test_count_truncation_flag(self):
        s2 = np.arange(1.0, 101.0)
        assert stopping_indices(s2, 1.5, count=50).truncated
        assert not stopping_indices(s2, 1.5, count=2).truncated

    def test_eta_domain(self):
        for eta in (1.0, 2.0, 0.5):
            with pytest.raises(ConfigError):
                stopping_indices(np.arange(1.0, 10.0), eta)

    @given(seed=st.integers(0, 2**31), eta=st.floats(1.05, 1.95))
    @settings(max_examples=30, deadline=None)
    def test_monotone_thresholds(self, seed, eta):
        r = np.random.default_rng(seed)
        s2 = np.cumsum(r.uniform(0.01, 1.0, size=300))
        ks = stopping_indices(s2, eta).ks
        assert np.all(np.diff(ks) >= 0)


class TestGenerators:
    def test_tensor_martingale_property(self):
        model = AlgebraModel("tensor", 2, 6)
        path = gen_tensor_martingale(model, seed=2)
        assert path.horizon == 6
        assert validate_differences(model, path.differences) < 1e-9
        assert abs(normalized_trace(path.final)) < 1e-10

    def test_tensor_bound_sequence_respected(self):
        model = AlgebraModel("tensor", 2, 5)
        bounds = [0.5, 1.0, 0.25, 2.0, 1.5]
        path = gen_tensor_martingale(model, bound_seq=bounds, seed=4, coupling="none")
        np.testing.assert_allclose(path.dnorm, bounds, rtol=1e-9)

    def test_model_martingale_all_kinds(self):
        for kind, m, n in [("tensor", 2, 4), ("pinching", 2, 4), ("diagonal", 2, 6)]:
            model = AlgebraModel(kind, m, n)
            path = gen_model_martingale(model, seed=8)
            assert validate_differences(model, path.differences) < 1e-9
            assert np.all(np.diff(path.s2) >= -1e-12)
            np.testing.assert_allclose(path.dnorm, 1.0, rtol=1e-9)

    def test_bracket_norms_consistent(self):
        model = AlgebraModel("pinching", 2, 4)
        path = gen_model_martingale(model, seed=8)
        ops, s2, u = bracket_norms(model, path.differences)
        np.testing.assert_allclose(s2, path.s2, rtol=1e-12)
        assert all(o.hermitian for o in ops)
        assert np.all(u >= 1.0)

    def test_alpha_growth_profile(self):
        model = AlgebraModel("tensor", 2, 8)
        prof = np.full(8, 0.3)
        path = gen_tensor_martingale(model, alpha_profile=prof, seed=3, base_scale=0.5)
        # realized alpha_n = ||d_n|| u_n / s_n should track the request from step 2 on
        realized = (path.dnorm * path.u / np.sqrt(path.s2))[1:]
        np.testing.assert_allclose(realized, 0.3, rtol=0.35)

    def test_diagonal_martingale_exact_bracket(self):
        path = gen_diagonal_martingale(horizon=500, paths=64, law="uniform",
                                       variance=2.0, seed=5)
        np.testing.assert_allclose(path.s2, 2.0 * np.arange(1, 501), rtol=1e-12)
        assert path.is_ensemble
        assert path.md_residual < 1e-12
        assert path.meta["bracket_exact"]

    def test_diagonal_martingale_variance_profile(self):
        v = np.linspace(0.5, 1.5, 20)
        path = gen_diagonal_martingale(horizon=20, paths=32, variance=v, seed=5)
        np.testing.assert_allclose(path.s2, np.cumsum(v), rtol=1e-12)
        np.testing.assert_allclose(path.dnorm, np.sqrt(v), rtol=1e-12)

    def test_diagonal_partials_when_kept(self):
        path = gen_diagonal_martingale(horizon=50, paths=32, seed=5,
                                       keep_increments=True)
        x10 = path.partial(10)
        assert x10.diagonal
        assert abs(normalized_trace(x10)) < 1e-12
        np.testing.assert_allclose(path.partial(50).diag_array(),
                                   path.final.diag_array(), atol=1e-12)

    def test_memory_guard(self):
        with pytest.raises(ConfigError):
            gen_diagonal_martingale(horizon=10**6, paths=4096, keep_increments=True)

    def test_gue_normalization(self):
        rng = stream_rng(17)
        h = gue_matrix(rng, 300)
        tau_h2 = float(np.trace(h @ h).real) / 300
        assert abs(tau_h2 - 1.0) < 0.15
        ev = np.linalg.eigvalsh(h)
        assert ev.min() > -2.5 and ev.max() < 2.5

