"""Inequality checks against closed forms and hand-built martingales.

The two-spin martingale below has tau(exp(lam x_2)) = cosh(lam)^2 in
closed form, which pins the left side of the exponential moment bound
independently of the implementation's eigenvalue route.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclil import (AlgebraModel, ConfigError, ExpIneqParams,
                   HypothesisViolation, MartingalePath, NclilError, Operator,
                   ShapeError, block_tail_bound, chebyshev_bound,
                   column_maximal_norm_bounds, doob_consequence_check,
                   dual_doob_check, exp_moment_sides, gen_model_martingale,
                   gen_tensor_martingale, lp_norm, min_eigenvalue,
                   normalized_trace, probc_upper, random_level_element,
                   scalar_power_exp_bound, stream_rng, symmetrize)
from nclil import inequalities as ineq
from nclil import operators as op
from nclil.tolerances import (ENCLOSURE_ABS_TOL, ENCLOSURE_REL_TOL, FEAS_TOL, MD_RESIDUAL_TOL,
                              REPAIR_GAP_TOL, SEARCH_REL_TOL)

from operator_samples import random_hermitian


def two_spin_path():
    """x_2 = sigma_z (x) 1 + 1 (x) sigma_z on the 2x2 tensor model.

    Each d_k^2 is the identity, so s^2 = [1, 2]; both lie below e^e, so u = 1.
    """
    model = AlgebraModel("tensor", 2, 2)
    sz = np.diag([1.0, -1.0])
    d1 = Operator(np.kron(sz, np.eye(2)), hermitian=True)
    d2 = Operator(np.kron(np.eye(2), sz), hermitian=True)
    partials = [d1, d1 + d2]
    return MartingalePath(final=partials[-1], s2=np.array([1.0, 2.0]), u=np.ones(2),
                          dnorm=np.array([1.0, 1.0]), model=model, partials=partials)


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
            final=path.final + Operator(np.eye(4), hermitian=True), s2=path.s2, u=path.u,
            dnorm=path.dnorm, model=path.model,
            partials=[path.partials[0], path.final + Operator(np.eye(4), hermitian=True)])
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

    def test_repair_gap_edge(self):
        a = np.array([0.0, 1.0])
        at_edge = np.array([[REPAIR_GAP_TOL, 0.0]])
        repaired, feasible = ineq._feasibilize(a, at_edge, 0.0)
        assert feasible and repaired is not a
        assert np.array_equal(repaired, [REPAIR_GAP_TOL, 1.0])
        inside = np.array([[np.nextafter(REPAIR_GAP_TOL, 0.0), 0.0]])
        repaired, feasible = ineq._feasibilize(a, inside, 0.0)
        assert feasible and repaired is a

    def test_mixed_storage_searches_dense(self, rng):
        diag = Operator(rng.standard_normal(4), hermitian=True)
        dense = random_hermitian(rng, 4)
        mixed = column_maximal_norm_bounds([diag, dense], p=4.0)
        promoted = column_maximal_norm_bounds(
            [Operator(diag.dense_array(), hermitian=True), dense], p=4.0)
        assert mixed.upper == pytest.approx(promoted.upper, rel=1e-12)
        assert mixed.lower == pytest.approx(promoted.lower, rel=1e-12)
        with pytest.raises(ShapeError):
            column_maximal_norm_bounds([diag, random_hermitian(rng, 3)], p=4.0)

    @pytest.mark.parametrize("upper", [0.0, 1.0, 37.5])
    def test_enclosure_guard_edge(self, upper):
        edge = upper * (1.0 + ENCLOSURE_REL_TOL) + ENCLOSURE_ABS_TOL
        ineq._require_enclosure(edge, upper)
        with pytest.raises(NclilError, match="lower bound exceeds"):
            ineq._require_enclosure(np.nextafter(edge, np.inf), upper)

    def test_doob_p_domain(self):
        path = two_spin_path()
        with pytest.raises(ConfigError):
            doob_consequence_check(path, 3.0)

    def test_doob_md_residual_edge(self):
        path = two_spin_path()
        path.md_residual = MD_RESIDUAL_TOL
        assert doob_consequence_check(path, 4.0).holds
        path.md_residual = np.nextafter(MD_RESIDUAL_TOL, 1.0)
        with pytest.raises(NclilError):
            doob_consequence_check(path, 4.0)


def doob_family(kind, seed):
    """x_1..x_n of a martingale drawn the way verify-doob draws its trials."""
    rng = stream_rng(seed, 0, f"doob-{kind}")
    depth = {"tensor": 4, "pinching": 5, "diagonal": 9}[kind]
    gen = gen_tensor_martingale if kind == "tensor" else gen_model_martingale
    path = gen(AlgebraModel(kind, 2, depth), seed=seed,
               bound_seq=np.exp(0.3 * rng.standard_normal(depth)))
    return [path.partial(i) for i in range(1, path.horizon + 1)]


def hermitian_family(seed, dim=8, count=3):
    """A family like verify-chebyshev's: independent hermitian columns."""
    rng = stream_rng(seed, 0, "chebyshev")
    return [random_hermitian(rng, dim, scale=1.0 / math.sqrt(dim)) for _ in range(count)]


def lifted_constraints(xs):
    """(cons, scale): the distinct lifted constraints x_i* x_i of a family, as Operators."""
    cons, seen = [], set()
    squares = [symmetrize(x.adjoint() @ x) for x in xs]
    scale = max(lp_norm(c, np.inf) for c in squares)
    for c in op.lift_common(squares):
        key = (c.layout, c.data.shape, c.data.tobytes())
        if key not in seen:
            seen.add(key)
            cons.append(c)
    return cons, scale


def reference_pos_part(x):
    """Positive part of hermitian x at its own storage, from numpy's eigh of the
    hermitian part of its stored block."""
    if x.diagonal:
        return Operator(np.clip(x.data, 0.0, None), hermitian=True, diagonal=True)
    w, u = np.linalg.eigh(0.5 * (x.data + x.data.conj().T))
    return Operator((u * np.clip(w, 0.0, None)) @ u.conj().T, hermitian=True,
                    mult=x.mult, layout=x.layout)


def reference_feasibilize(a, cons):
    """The repair loop on Operators: every gap is min_eigenvalue(a - c), none screened."""
    for _ in range(ineq._FEAS_ROUNDS):
        worst_gap, worst = 0.0, None
        for c in cons:
            gap = min_eigenvalue(a - c)
            if gap < worst_gap:
                worst_gap, worst = gap, c
        if worst is None or worst_gap > -REPAIR_GAP_TOL:
            return a, True
        a = a + reference_pos_part(worst - a)
    return a, False


def reference_feasible(a, cons, scale):
    return all(min_eigenvalue(a - c) >= -FEAS_TOL * (1.0 + scale) for c in cons)


def reference_bounds(xs, p):
    """The column-norm search as one self-contained loop on Operators, nothing shared across p."""
    cons, scale = lifted_constraints(xs)

    def objective(a):
        return lp_norm(a, p / 2.0) ** 0.5

    candidates = [sum(cons)]                # the full sum, then the repaired last column
    last, converged = reference_feasibilize(cons[-1], cons)
    if converged or reference_feasible(last, cons, scale):
        candidates.append(last)
    best, best_obj = min(((a, objective(a)) for a in candidates), key=lambda t: t[1])
    iters = 0
    for iters in range(1, ineq._SEARCH_ITERS + 1):
        trial, converged = reference_feasibilize(ineq._SHRINK * best, cons)
        if not (converged or reference_feasible(trial, cons, scale)):
            break
        obj = objective(trial)
        if obj >= best_obj * (1.0 - SEARCH_REL_TOL):
            break
        best, best_obj = trial, obj
    lower = max(lp_norm(x, p) for x in xs)
    return lower, best_obj, iters, op.psd_sqrt(best)


def outcome(cb):
    cert = cb.certificate
    return (cb.lower, cb.upper, cb.iterations,
            cert.data.tobytes(), cert.data.shape, cert.mult, cert.layout)


def cold_bounds(xs, p):
    ineq._last_descent = None
    return column_maximal_norm_bounds(xs, p)


class TestScreenedGaps:
    """The Cholesky screen reports exact gaps and clears only constraints that cannot matter."""

    FAMILIES = {
        "diagonal": lambda: doob_family("diagonal", seed=3),
        "dense": lambda: hermitian_family(1),
        "tensor-embedded": lambda: doob_family("tensor", seed=3)[:-1],
        "pinching-embedded": lambda: doob_family("pinching", seed=3)[:-1],
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_gaps_along_the_descent(self, family):
        cons, _ = lifted_constraints(self.FAMILIES[family]())
        like = cons[0]
        assert (like.mult > 1) == family.endswith("embedded")
        stack = np.stack([c.data for c in cons])
        a = functools.reduce(np.add, stack)
        cleared = exact = 0
        for _ in range(6):
            for b in (a, ineq._SHRINK * a):         # a dominator and a trial to repair
                wrapped = Operator(b, hermitian=True, diagonal=like.diagonal,
                                   mult=like.mult, layout=like.layout)
                for gap, c in zip(ineq._screened_gaps(b, stack), cons):
                    true_gap = min_eigenvalue(wrapped - c)
                    if np.isinf(gap):
                        cleared += 1
                        assert true_gap >= -REPAIR_GAP_TOL
                    else:
                        exact += 1
                        assert gap == true_gap
            a, _ = ineq._feasibilize(ineq._SHRINK * a, stack, 0.0)
        assert exact > 0
        assert (cleared > 0) == (family != "diagonal")


class TestSharedDescent:
    """Every p of one family walks one memoized descent; results equal a fresh search."""

    KINDS = ("tensor", "pinching", "diagonal")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p", [4.0, 6.0, 8.0])
    def test_matches_unshared_loop(self, kind, p):
        xs = doob_family(kind, seed=3)
        column_maximal_norm_bounds(xs, 6.0 if p != 6.0 else 8.0)   # memo warm at another p
        lower, upper, iters, cert = reference_bounds(xs, p)
        assert outcome(column_maximal_norm_bounds(xs, p)) == (
            lower, upper, iters, cert.data.tobytes(), cert.data.shape, cert.mult, cert.layout)

    @pytest.mark.parametrize("kind", KINDS + ("hermitian",))
    def test_out_of_order_p_interleaved_with_another_family(self, kind):
        if kind == "hermitian":
            a, b = hermitian_family(1), hermitian_family(2)
        else:
            a, b = doob_family(kind, seed=1), doob_family(kind, seed=2)
        assert [x.data.shape for x in a] == [x.data.shape for x in b]
        order = [(a, 8.0), (a, 4.0), (b, 6.0), (b, 8.0), (a, 6.0), (b, 4.0), (a, 8.0)]
        warm = [outcome(column_maximal_norm_bounds(xs, p)) for xs, p in order]
        cold = [outcome(cold_bounds(xs, p)) for xs, p in order]
        assert warm == cold

    def test_p_values_share_one_descent_but_stop_apart(self):
        xs = doob_family("tensor", seed=3)
        iters = [cold_bounds(xs, 4.0).iterations]
        shared = ineq._last_descent
        for p in (6.0, 8.0):
            iters.append(column_maximal_norm_bounds(xs, p).iterations)
            assert ineq._last_descent is shared
        assert len(set(iters)) > 1      # the stopping step depends on p

    def test_one_ulp_change_gets_a_fresh_search(self):
        xs = doob_family("pinching", seed=1)
        column_maximal_norm_bounds(xs, 4.0)
        before = ineq._last_descent
        x = xs[-1]
        data = np.array(x.data)
        data[0, 0] = np.nextafter(data[0, 0].real, np.inf)
        nudged = xs[:-1] + [Operator(data, hermitian=True, mult=x.mult, layout=x.layout)]
        warm = outcome(column_maximal_norm_bounds(nudged, 4.0))
        assert ineq._last_descent is not before
        assert warm == outcome(cold_bounds(nudged, 4.0))


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

    def test_rejects_bad_input(self, rng):
        model = AlgebraModel("tensor", 2, 3)
        x = random_hermitian(rng, 8)       # not psd
        with pytest.raises(NclilError):
            dual_doob_check(model, [x], p=1.5)
        with pytest.raises(ConfigError):
            dual_doob_check(model, [x @ x.adjoint()], p=2.5)


class TestProbcAndChebyshev:
    def test_probc_by_hand(self):
        xs = [Operator([3.0, 1.0], hermitian=True)]
        dom = Operator([3.0, 1.0], hermitian=True)
        res = probc_upper(xs, t=2.0, dominator=dom)
        assert res.s == pytest.approx(0.5)
        for x in xs:                            # every compressed column within t
            assert lp_norm(x @ res.e, np.inf) <= 2.0 + 1e-12

    def test_probc_requires_domination(self):
        xs = [Operator([3.0, 1.0], hermitian=True)]
        with pytest.raises(NclilError):
            probc_upper(xs, t=1.0, dominator=Operator([1.0, 1.0], hermitian=True))

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

    def test_vacuous_final_bound_past_the_float_range_is_inf(self):
        """ell = 2 ln 1.05 < 1 and c near 3e9: ell^-c is no float."""
        assert block_tail_bound(n=1, eta=1.05, delta=0.1, eps=0.1, beta=1e5).bound_final == math.inf

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
