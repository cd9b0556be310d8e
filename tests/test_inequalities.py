"""Inequality checks against closed forms and hand-built martingales.

The two-spin martingale below has tau(exp(lam x_2)) = cosh(lam)^2 in
closed form, which pins the left side of the exponential moment bound
independently of the implementation's eigenvalue route.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclil import (AlgebraModel, ConfigError, ExpIneqParams,
                   HypothesisViolation, MartingalePath, NclilError, Operator,
                   block_tail_bound, bracket_norms, chebyshev_bound,
                   column_maximal_norm_bounds, dense_operator,
                   diagonal_operator, doob_consequence_check, dual_doob_check,
                   exp_moment_sides, gen_model_martingale,
                   gen_tensor_martingale, identity, lp_norm, min_eigenvalue,
                   normalized_trace, probc_upper, random_level_element,
                   scalar_power_exp_bound, stream_rng, symmetrize)

from conftest import random_hermitian


def two_spin_path():
    """x_2 = sigma_z (x) 1 + 1 (x) sigma_z on the 2x2 tensor model."""
    model = AlgebraModel("tensor", 2, 2)
    sz = np.diag([1.0, -1.0])
    d1 = Operator(np.kron(sz, np.eye(2)), hermitian=True)
    d2 = Operator(np.kron(np.eye(2), sz), hermitian=True)
    diffs = [d1, d2]
    _, s2, u = bracket_norms(model, diffs)
    partials = [d1, d1 + d2]
    return MartingalePath(final=partials[-1], s2=s2, u=u,
                          dnorm=np.array([1.0, 1.0]), model=model,
                          differences=diffs, partials=partials)


class TestExpMoment:
    def test_two_spin_closed_form(self):
        path = two_spin_path()
        assert path.s2_of(2) == pytest.approx(2.0)
        for lam in (0.0, 0.1, 0.2):
            params = ExpIneqParams(M=1.0, D2=2.0, eps=0.1, lam=lam)
            res = exp_moment_sides(path, 2, params)
            assert res.log_lhs == pytest.approx(2.0 * math.log(math.cosh(lam)), abs=1e-12)
            assert res.log_rhs == pytest.approx(1.1 * lam ** 2 * 2.0, abs=1e-15)
            assert res.holds

    def test_admissible_range(self):
        cap = math.sqrt(0.1) / (1.0 * 1.1)
        ExpIneqParams(M=1.0, D2=1.0, eps=0.1, lam=cap)
        with pytest.raises(HypothesisViolation) as ei:
            ExpIneqParams(M=1.0, D2=1.0, eps=0.1, lam=cap * 1.01)
        assert ei.value.item == "lambda"

    def test_hypothesis_items(self):
        path = two_spin_path()
        with pytest.raises(HypothesisViolation) as e2:
            exp_moment_sides(path, 2, ExpIneqParams(M=0.5, D2=2.0, eps=0.1, lam=0.0))
        assert e2.value.item == "ii"
        with pytest.raises(HypothesisViolation) as e3:
            exp_moment_sides(path, 2, ExpIneqParams(M=1.0, D2=1.5, eps=0.1, lam=0.0))
        assert e3.value.item == "iii"
        shifted = MartingalePath(
            final=path.final + identity(4), s2=path.s2, u=path.u,
            dnorm=path.dnorm, model=path.model, differences=path.differences,
            partials=[path.partials[0], path.final + identity(4)])
        with pytest.raises(HypothesisViolation) as e1:
            exp_moment_sides(shifted, 2, ExpIneqParams(M=1.0, D2=2.0, eps=0.1, lam=0.0))
        assert e1.value.item == "i"

    def test_centering_example(self):
        model = AlgebraModel("tensor", 2, 5)
        path = gen_tensor_martingale(model, seed=21)
        assert abs(normalized_trace(path.partial(1))) <= 1e-12

    @given(seed=st.integers(0, 2**31), eps=st.sampled_from([0.1, 0.5, 1.0]),
           frac=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_never_violated_on_generated(self, seed, eps, frac):
        model = AlgebraModel("pinching", 2, 4)
        path = gen_model_martingale(model, seed=seed)
        n = path.horizon
        M = float(path.dnorm[:n].max())
        D2 = path.s2_of(n) * (1.0 + 1e-9)
        lam = frac * math.sqrt(eps) / (M * (1.0 + eps))
        res = exp_moment_sides(path, n, ExpIneqParams(M=M, D2=D2, eps=eps, lam=lam))
        assert res.holds


class TestColumnBounds:
    def test_enclosure_and_certificate(self, rng):
        xs = [random_hermitian(rng, 6) for _ in range(4)]
        cb = column_maximal_norm_bounds(xs, p=4.0)
        assert cb.lower <= cb.upper + 1e-9
        asq = cb.certificate @ cb.certificate
        for x in xs:
            gap = min_eigenvalue(symmetrize(asq - x.adjoint() @ x))
            assert gap >= -1e-6 * (1.0 + lp_norm(asq, np.inf))

    def test_single_column_is_tight(self, rng):
        x = random_hermitian(rng, 5)
        cb = column_maximal_norm_bounds([x], p=6.0)
        assert cb.gap_ratio > 0.95

    def test_doob_consequence_on_martingales(self):
        for seed in range(5):
            path = gen_tensor_martingale(AlgebraModel("tensor", 2, 5), seed=seed)
            for p in (4.0, 6.0, 8.0):
                chk = doob_consequence_check(path, p)
                assert not chk.certified_violation
                assert chk.lower <= chk.upper + 1e-9

    def test_doob_p_domain(self):
        path = two_spin_path()
        with pytest.raises(ConfigError):
            doob_consequence_check(path, 3.0)


class TestDualDoob:
    def test_p1_is_equality(self, rng):
        model = AlgebraModel("tensor", 2, 4)
        pos = []
        for k in range(1, 5):
            g = random_level_element(model, k, rng)
            pos.append(symmetrize(g @ g.adjoint()))
        chk = dual_doob_check(model, pos, p=1.0)
        assert chk.cp == 1.0
        assert chk.lhs == pytest.approx(chk.rhs, abs=1e-10)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_holds_across_kinds(self, p, rng):
        for kind, m, n in [("tensor", 2, 3), ("pinching", 2, 3), ("diagonal", 2, 5)]:
            model = AlgebraModel(kind, m, n)
            pos = []
            for k in range(1, model.n + 1):
                g = random_level_element(model, k, rng)
                pos.append(symmetrize(g @ g.adjoint()))
            assert dual_doob_check(model, pos, p=p).holds

    def test_collapsed_levels_projects_to_trace(self, rng):
        # levels=[0, 0] sends every summand through E_0 = tau(.) 1
        model = AlgebraModel("tensor", 2, 3)
        g = random_level_element(model, 2, rng)
        a = symmetrize(g @ g.adjoint())
        chk = dual_doob_check(model, [a, a], p=1.0, levels=[0, 0])
        assert chk.lhs == pytest.approx(2.0 * normalized_trace(a), abs=1e-10)

    def test_rejects_bad_input(self, rng):
        model = AlgebraModel("tensor", 2, 3)
        x = random_hermitian(rng, 8)       # not psd
        with pytest.raises(NclilError):
            dual_doob_check(model, [x], p=1.5)
        with pytest.raises(ConfigError):
            dual_doob_check(model, [x @ x.adjoint()], p=2.5)


class TestProbcAndChebyshev:
    def test_probc_by_hand(self):
        xs = [diagonal_operator([3.0, 1.0])]
        dom = diagonal_operator([3.0, 1.0])
        res = probc_upper(xs, t=2.0, dominator=dom)
        assert res.s == pytest.approx(0.5)
        assert res.max_compressed <= 2.0 + 1e-12

    def test_probc_requires_domination(self):
        xs = [diagonal_operator([3.0, 1.0])]
        with pytest.raises(NclilError):
            probc_upper(xs, t=1.0, dominator=diagonal_operator([1.0, 1.0]))

    def test_chebyshev_identity_and_monotonicity(self, rng):
        xs = [random_hermitian(rng, 6) for _ in range(3)]
        cb = column_maximal_norm_bounds(xs, p=4.0)
        last_s = 1.0
        top = lp_norm(cb.certificate, np.inf)
        for t in np.linspace(0.05 * top, 1.1 * top, 20):
            res = chebyshev_bound(xs, float(t), p=4.0, bounds=cb)
            assert res.holds
            assert res.residual >= -1e-10
            assert res.probc_s <= last_s + 1e-12
            last_s = res.probc_s
        assert last_s == 0.0   # above the top of the spectrum nothing is cut


class TestScalarBound:
    @given(u=st.floats(-1e5, 1e5, allow_nan=False), p=st.floats(1.0, 64.0))
    @settings(max_examples=200)
    def test_always_holds(self, u, p):
        assert scalar_power_exp_bound(u, p).holds

    def test_touch_point(self):
        # at u = p the two sides are closest; still strict by the e^{-u} term
        res = scalar_power_exp_bound(4.0, 4.0)
        assert res.holds
        assert res.log_rhs - res.log_lhs < 0.1

    def test_p_domain(self):
        with pytest.raises(ConfigError):
            scalar_power_exp_bound(1.0, 0.5)


class TestBlockBound:
    def test_worked_point(self):
        bb = block_tail_bound(n=10, eta=math.exp(0.5), delta=1.0, eps=1.0)
        assert bb.c == pytest.approx(2.0, abs=1e-14)
        assert bb.bound_final == pytest.approx(1e-2, abs=1e-12)
        assert bb.bound_exact == pytest.approx(8.0 * math.exp(-20.0), rel=1e-12)

    def test_simplified_exponent(self):
        # beta = 2 and delta = eps collapse the exponent to 1 + delta
        for delta in (0.1, 0.25, 0.5):
            bb = block_tail_bound(n=3, eta=1.5, delta=delta, eps=delta)
            assert bb.c == pytest.approx(1.0 + delta, rel=1e-14)

    def test_gates(self):
        early = block_tail_bound(n=1, eta=1.5, delta=0.1, eps=0.1)
        assert not early.gate_p          # tilt too weak for the p >= 4 route
        late = block_tail_bound(n=30, eta=1.5, delta=0.1, eps=0.1)
        assert late.gate_p
        cap = 2.0 * math.sqrt(0.1) / (2.0 * 1.1)
        gated = block_tail_bound(n=30, eta=1.5, delta=0.1, eps=0.1,
                                 alpha_next=cap * 1.01)
        assert gated.gate_alpha is False
        assert gated.valid is False

    def test_exact_flips_below_final(self):
        small = block_tail_bound(n=1, eta=1.5, delta=0.1, eps=0.1)
        assert not small.exact_le_final   # the prefactor 8 dominates early
        big = block_tail_bound(n=40, eta=1.5, delta=0.1, eps=0.1)
        assert big.exact_le_final

    def test_prefactor_gate_tracks_comparison(self):
        # the index condition and the evaluated comparison must agree
        for n in range(1, 12):
            bb = block_tail_bound(n=n, eta=1.5, delta=0.1, eps=0.1)
            assert bb.gate_ell == bb.exact_le_final
        assert not block_tail_bound(n=3, eta=1.5, delta=0.1, eps=0.1).valid
        assert block_tail_bound(n=4, eta=1.5, delta=0.1, eps=0.1).valid

    def test_chain_through_bracket(self):
        s2 = 1.5 ** 42                    # inside block 20 at eta = 1.5
        bb = block_tail_bound(n=20, eta=1.5, delta=0.1, eps=0.1, s2_next=s2)
        assert bb.mid is not None
        assert bb.chain_exact_le_mid and bb.chain_mid_le_final
        assert bb.tilt_ratio is not None and bb.tilt_ratio < 0.5

    def test_series_summable(self):
        c = block_tail_bound(n=1, eta=1.5, delta=0.1, eps=0.1).c
        assert c == pytest.approx(1.1, rel=1e-14)
        ell = 2.0 * np.arange(1, 100001) * math.log(1.5)
        total = float(np.sum(ell ** -c))
        # integral comparison: sum_{n>=1} (a n)^-c <= a^-c (1 + 1/(c-1))
        a = 2.0 * math.log(1.5)
        assert total <= a ** -c * (1.0 + 1.0 / (c - 1.0))

    def test_domains(self):
        for bad in [dict(n=0), dict(eta=2.5), dict(delta=-0.1), dict(eps=0.0)]:
            kw = dict(n=5, eta=1.5, delta=0.1, eps=0.1)
            kw.update(bad)
            with pytest.raises(ConfigError):
                block_tail_bound(**kw)
