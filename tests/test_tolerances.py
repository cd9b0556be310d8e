"""The tolerance table: no tolerance outside it, and every entry pinned at its edge.

Each entry's case runs the function that reads it at an input on the edge,
which passes, and at the input one ulp past it, which fails.  The test
enumerates ``nclil.tolerances``, so an entry without a case fails it.
"""

import ast
import itertools
import math
import types
from pathlib import Path

import numpy as np
import pytest

from nclil import (AlgebraModel, CEAxiomReport, ExpIneqParams, HypothesisViolation,
                   MartingalePath, NclilError, Operator, Projection, column_maximal_norm_bounds,
                   doob_consequence_check, dual_doob_check, exp_moment_sides,
                   gen_tensor_martingale, normalized_trace, probc_upper, psd_sqrt,
                   spectral_projection, stopping_indices)
from nclil import inequalities as ineq
from nclil import lil, martingales, tolerances
from nclil.martingales import BracketProfile
from nclil.operators import hermitian_eigh
from nclil.tolerances import (BC_TOLERANCES, BRACKET_TOL, CE_AXIOM_TOL, CENTER_TOL,
                              CENTERED_NORM_FLOOR, ENCLOSURE_ABS_TOL, ENCLOSURE_REL_TOL,
                              ENDPOINT_FUZZ, FEAS_TOL, HERM_ATOL, HOLD_TOL, IMAG_ATOL,
                              KERNEL_CUT, MD_RESIDUAL_TOL, MONOTONE_TOL, PROJ_ATOL, PSD_FLOOR,
                              RECON_TOL, REPAIR_GAP_TOL, ROUND_ABS, ROUND_REL, SEARCH_REL_TOL,
                              SITE_NORM_FLOOR, TILT_CAP_ABS, TILT_FLOOR)

SRC = Path(__file__).resolve().parents[1] / "src" / "nclil"
_DIAG2 = AlgebraModel("diagonal", 2, 1)


def test_no_tolerance_outside_the_table():
    """A float literal with 0 < |v| < 1e-3 is a tolerance, and only the table holds one."""
    found = [f"{path.name}:{node.lineno} {node.value!r}"
             for path in sorted(SRC.glob("*.py")) if path.name != "tolerances.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and type(node.value) is float
             and 0.0 < abs(node.value) < 1e-3]
    assert found == []


def _ok(call, exc=NclilError):
    """passes(v): call(v) returns without raising ``exc``."""
    def passes(v):
        try:
            call(v)
        except exc:
            return False
        return True
    return passes


def _last_passing(passes, inside: float, outside: float) -> float:
    """The passing float next to the first failing one, between a passing
    ``inside`` and a failing ``outside`` of one sign (bisection on the float order)."""
    lo, hi = (int(np.float64(x).view(np.int64)) for x in (inside, outside))
    while abs(hi - lo) > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if passes(float(np.int64(mid).view(np.float64))) else (lo, mid)
    return float(np.int64(lo).view(np.float64))


def _path(vals, s2=1.0, u=1.0, dnorm=1.0) -> MartingalePath:
    """A one-step path whose x_1 has the spectral values ``vals``."""
    return MartingalePath(final=Operator(np.array(vals, dtype=float), hermitian=True),
                          s2=np.array([s2]), u=np.array([u]), dnorm=np.array([dnorm]))


def _sides(vals, M=1.0, D2=1.0, lam=0.1, **path):
    return exp_moment_sides(_path(vals, **path), 1, ExpIneqParams(M, D2, 0.1, lam))


def _recon(mp):
    def passes(d):      # eigh of the zero block returns w = (0, d): residual d
        mp.setattr(np.linalg, "eigh", lambda a: (np.array([0.0, d]), np.eye(2, dtype=complex)))
        return _ok(hermitian_eigh)(np.zeros((2, 2), dtype=complex))
    return [(passes, RECON_TOL, np.inf)]


def _fuzz(mp):
    def third_threshold(s2):    # eta^6 = 729/64 exactly; the fuzz counts it reached just below
        return len(stopping_indices(BracketProfile(np.array([s2])), 1.5).ks) == 4
    top = _last_passing(third_threshold, 1.5 ** 6, 0.99 * 1.5 ** 6)
    assert top == pytest.approx(1.5 ** 6 * math.exp(-2.0 * math.log(1.5) * ENDPOINT_FUZZ),
                                rel=1e-14)
    return [(lambda v: spectral_projection(Operator([v], hermitian=True), 0.0, 1.0).trace == 0.0,
             ENDPOINT_FUZZ, np.inf),
            (third_threshold, top, -np.inf)]


def _site(mp):
    def passes(t):      # draws diag(t, -t) + 0j, of spectral radius t, until one is kept
        draws = itertools.cycle([np.diag([t, -t]), np.zeros((2, 2))])
        rng = types.SimpleNamespace(standard_normal=lambda shape: next(draws))
        return _ok(lambda _: martingales._traceless_site(rng, 2, 1.0))(t)
    return [(passes, np.nextafter(SITE_NORM_FLOOR, np.inf), -np.inf)]


def _centered(mp):
    def passes(h):      # y = (h, -h) is centered already, of norm h
        mp.setattr(martingales, "random_level_element",
                   lambda model, k, rng: Operator([h, -h], hermitian=True))
        return _ok(lambda _: martingales._centered_level_element(_DIAG2, 1, 1.0, None))(h)
    return [(passes, np.nextafter(CENTERED_NORM_FLOOR, np.inf), -np.inf)]


def _search(mp):
    def passes(x):      # the search's first iterate, of objective sqrt(x), against start 1
        descent = types.SimpleNamespace(
            starts=[Operator([1.0], hermitian=True)],
            iterate=lambda start, j: Operator([x], hermitian=True) if j == 1 else None)
        mp.setattr(ineq, "_descent", lambda unique, scale: descent)
        return column_maximal_norm_bounds([Operator([1e-3], hermitian=True)], 2.0).upper < 1.0
    edge = _last_passing(passes, 0.5, 1.0)
    assert math.sqrt(edge) == pytest.approx(1.0 - SEARCH_REL_TOL, rel=1e-14)
    return [(passes, edge, np.inf)]


def _md_residual(mp):
    path = gen_tensor_martingale(AlgebraModel("tensor", 2, 2), seed=0)

    def passes(r):
        path.md_residual = r
        return _ok(lambda _: doob_consequence_check(path, 4.0))(r)
    return [(passes, MD_RESIDUAL_TOL, np.inf)]


def _kernel_cut(mp):
    # e keeps the direction of the complement 1 - v when 1 - v <= cut + fuzz; 1 - v is
    # exact for v in [1/2, 1], a multiple of 2^-53, so the edge is the next one up
    limit = KERNEL_CUT * 2.0 + ENDPOINT_FUZZ
    return [(lambda v: lil._intersect_projections([Projection([v, 1.0])], _DIAG2).trace == 1.0,
             1.0 - math.floor(limit * 2 ** 53) / 2 ** 53, -np.inf)]


def _bc(mp):
    def bc(engine, key, deficit=0.0, limsup=1.0):
        return lil._bc_checks(deficit, 0.3, limsup, 2.2, 5.0, BC_TOLERANCES[engine])[key]
    return [case for engine, (union, lim_abs, lim_rel) in BC_TOLERANCES.items() for case in (
        (lambda d, e=engine: bc(e, "union_bound_ok", deficit=d), 0.3 + union, np.inf),
        (lambda s, e=engine: bc(e, "limsup_below_threshold_ok", limsup=s),
         2.2 * (1.0 + lim_rel) + lim_abs, np.inf))]


_A = np.array([0.0, 1.0])

# entry -> monkeypatch -> [(passes(v), the edge input, the direction one ulp past it)]
EDGES = {
    "HERM_ATOL": lambda mp: [   # entries of max 1, one off-diagonal r: residual r
        (_ok(lambda r: Operator([[1.0, r], [0.0, 1.0]], hermitian=True)), HERM_ATOL * 2.0,
         np.inf)],
    "RECON_TOL": _recon,
    "PROJ_ATOL": lambda mp: [   # [[0, r], [r, 0]]^2 - itself has max entry r
        (_ok(lambda r: Projection([[0.0, r], [r, 0.0]])), PROJ_ATOL, np.inf),
        (_ok(lambda m: psd_sqrt(Operator([-m, 1.0], hermitian=True))), PROJ_ATOL * 2.0,
         np.inf)],
    "ENDPOINT_FUZZ": _fuzz,
    "IMAG_ATOL": lambda mp: [   # the entries 1e6 let diagonal i r pass the hermitian check
        (_ok(lambda r: normalized_trace(Operator([[1j * r, 1e6], [1e6, 1j * r]],
                                                 hermitian=True))), IMAG_ATOL, np.inf)],
    "CE_AXIOM_TOL": lambda mp: [
        (lambda v: CEAxiomReport(_DIAG2, 1, module_property=v).passed, CE_AXIOM_TOL, np.inf)],
    "MD_RESIDUAL_TOL": _md_residual,
    "MONOTONE_TOL": lambda mp: [
        (_ok(lambda x: MartingalePath(final=Operator([0.0], hermitian=True), s2=np.array([x, 0.0]),
                                      u=np.ones(2), dnorm=np.ones(2))), MONOTONE_TOL, np.inf)],
    "SITE_NORM_FLOOR": _site,
    "CENTERED_NORM_FLOOR": _centered,
    "ROUND_REL": lambda mp: [
        (_ok(lambda d: _sides([0.0, 0.0], dnorm=d), HypothesisViolation), 1.0 + ROUND_REL, np.inf),
        (_ok(lambda u: _path([0.0], u=u)), 1.0 - ROUND_REL, -np.inf),
        (_ok(lambda lam: ExpIneqParams(1.0, 1.0, 0.1, lam), HypothesisViolation),
         ExpIneqParams(1.0, 1.0, 0.1, 0.0).admissible_max * (1.0 + ROUND_REL) + TILT_CAP_ABS,
         np.inf)],
    "ROUND_ABS": lambda mp: [
        (lambda d: lil._bc_checks(d, 1.0, 1.0, 2.2, 0.5, BC_TOLERANCES["streaming-ensemble"])
         ["theory_implies_deficit_ok"], 0.5 + ROUND_ABS, np.inf)],
    "TILT_FLOOR": lambda mp: [
        (_ok(lambda lam: ExpIneqParams(1.0, 1.0, 0.1, lam), HypothesisViolation), -TILT_FLOOR,
         -np.inf)],
    "TILT_CAP_ABS": lambda mp: [    # M = 1e300 puts the cap, 5e-301, below the slack
        (_ok(lambda lam: ExpIneqParams(1e300, 1.0, 1.0, lam), HypothesisViolation),
         ExpIneqParams(1e300, 1.0, 1.0, 0.0).admissible_max * (1.0 + ROUND_REL) + TILT_CAP_ABS,
         np.inf)],
    "CENTER_TOL": lambda mp: [
        (_ok(lambda c: _sides([c, c]), HypothesisViolation), CENTER_TOL, np.inf)],
    "BRACKET_TOL": lambda mp: [     # at D2 = 2^-31 the sum and the gap back are exact
        (_ok(lambda s2: _sides([0.0, 0.0], D2=2.0 ** -31, s2=s2), HypothesisViolation),
         2.0 ** -31 + BRACKET_TOL * (1.0 + 2.0 ** -31), np.inf)],
    "HOLD_TOL": lambda mp: [        # log_rhs is one subnormal, lost in log_rhs + HOLD_TOL
        (lambda c: _sides([c, c], M=1e-3, D2=math.ulp(0.0), lam=1.0, s2=math.ulp(0.0),
                          dnorm=1e-3).holds, HOLD_TOL, np.inf)],
    "FEAS_TOL": lambda mp: [        # ||x e|| = v against t = 1
        (_ok(lambda v: probc_upper([Operator([v, 0.0], hermitian=True)], 1.0,
                                   Operator([1.0, 5.0], hermitian=True))),
         1.0 + FEAS_TOL * (1.0 + 1.0), np.inf)],
    "REPAIR_GAP_TOL": lambda mp: [  # passes: a is left unrepaired
        (lambda g: ineq._feasibilize(_A, np.array([[g, 0.0]]), 0.0)[0] is _A,
         np.nextafter(REPAIR_GAP_TOL, 0.0), np.inf)],
    "ENCLOSURE_REL_TOL": lambda mp: [
        (_ok(lambda lower: ineq._require_enclosure(lower, 37.5)),
         37.5 * (1.0 + ENCLOSURE_REL_TOL) + ENCLOSURE_ABS_TOL, np.inf)],
    "ENCLOSURE_ABS_TOL": lambda mp: [
        (_ok(lambda lower: ineq._require_enclosure(lower, 0.0)), ENCLOSURE_ABS_TOL, np.inf)],
    "SEARCH_REL_TOL": _search,
    "PSD_FLOOR": lambda mp: [       # lambda_min -m against ||x||_inf = 1
        (_ok(lambda m: probc_upper([Operator([0.0, 0.0], hermitian=True)], 1.0,
                                   Operator([-m, 1.0], hermitian=True))), PSD_FLOOR * 2.0, np.inf),
        (_ok(lambda m: dual_doob_check(_DIAG2, [Operator([-m, 1.0], hermitian=True)], 1.5)),
         PSD_FLOOR * 2.0, np.inf)],
    "KERNEL_CUT": _kernel_cut,
    "BC_TOLERANCES": _bc,
}


@pytest.mark.parametrize("name", sorted(n for n in vars(tolerances) if n.isupper()))
def test_entry_edge(monkeypatch, name):
    assert name in EDGES, f"no edge case for tolerances.{name}"
    for passes, edge, away in EDGES[name](monkeypatch):
        assert passes(edge)
        assert not passes(np.nextafter(edge, away))
