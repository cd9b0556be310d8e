"""Level-embedded dense operators against their materialized matrices.

A level-k element of a tensor or pinching model is stored as its m^k
block with multiplicity m^(n-k).  Every operation must agree with the same
operation on the ambient m^n matrix, and the dense LIL engine must give
the numbers of the materialized route while its certificates stay at the
level of their block.
"""

import functools
import json

import numpy as np
import pytest

from nclil import (AlgebraModel, LILParameters, LILRunConfig, Operator,
                   ShapeError, apply_function, conditional_expectation,
                   eigenvalues, lp_norm, psd_sqrt, random_level_element,
                   run_lil_experiment, singular_values,
                   spectral_decomposition, spectral_projection, stream_rng,
                   symmetrize)
from nclil import lil
from nclil.operators import singular_number

MODELS = [("tensor", 2, 4), ("tensor", 3, 3), ("pinching", 2, 4), ("pinching", 3, 3)]


def embed(kind, y, rest):
    """The ambient matrix of a level block, written out with kron."""
    return np.kron(y, np.eye(rest)) if kind == "tensor" else np.kron(np.eye(rest), y)


def materialized_ce(model, x, k):
    """E_k on the ambient matrix: partial trace or pinching, then kron back up."""
    a = x.dense_array()
    da = model.level_dim(k)
    db = model.dim // da
    if model.kind == "tensor":
        y = np.einsum("ajbj->ab", a.reshape(da, db, da, db)) / db
    else:
        y = np.einsum("iaib->ab", a.reshape(db, da, db, da)) / db
    return embed(model.kind, y, db)


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = float(np.max(np.abs(want), initial=0.0))
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * (1.0 + scale)


def ambient(x):
    return Operator(x.dense_array(), hermitian=x.hermitian)


@pytest.fixture(params=MODELS, ids=lambda t: f"{t[0]}:{t[1]}:{t[2]}")
def model(request):
    return AlgebraModel(*request.param)


def level_pair(model, seed):
    """Random hermitian elements at levels j < k, stored at their levels."""
    r = stream_rng(seed, label=f"levels-{model.kind}-{model.m}")
    j = int(r.integers(0, model.n - 1))
    k = int(r.integers(j + 1, model.n + 1))
    return random_level_element(model, j, r), random_level_element(model, k, r), j, k


class TestLevelForm:
    @pytest.mark.parametrize("seed", range(3))
    def test_storage_is_the_block(self, model, seed):
        x, z, j, k = level_pair(model, seed)
        for y, lev in ((x, j), (z, k)):
            assert y.data.shape == (model.m ** lev,) * 2
            assert y.mult == model.m ** (model.n - lev) and y.dim == model.dim
            assert y.layout == (model.kind if lev < model.n else None)
            np.testing.assert_array_equal(y.dense_array(),
                                          embed(model.kind, y.data, y.mult))

    @pytest.mark.parametrize("seed", range(3))
    def test_arithmetic_across_levels(self, model, seed):
        x, z, _, k = level_pair(model, seed)
        X, Z = x.dense_array(), z.dense_array()
        for got, want in ((x + z, X + Z), (z - x, Z - X), (x @ z, X @ Z),
                          (z @ x, Z @ X), ((x @ z).adjoint(), (X @ Z).conj().T),
                          (2.5 * x - z, 2.5 * X - Z)):
            assert got.data.shape == (model.m ** k,) * 2    # lifted to the higher level
            assert_close(got.dense_array(), want)

    @pytest.mark.parametrize("seed", range(3))
    def test_conditional_expectation_down_and_up(self, model, seed):
        x, z, j, k = level_pair(model, seed)
        for y in (x, z, x @ z):
            for lev in range(model.n + 1):
                got = conditional_expectation(model, y, lev)
                assert got.data.shape[0] <= model.m ** lev
                assert_close(got.dense_array(), materialized_ce(model, y, lev))
        # above its level an element is its own conditional expectation
        assert conditional_expectation(model, x, k) is x

    @pytest.mark.parametrize("seed", range(3))
    def test_spectral_routines(self, model, seed):
        x, z, _, _ = level_pair(model, seed)
        for y in (x, z, symmetrize(x @ z + z @ x)):
            Y = ambient(y)
            # block-sized answers; each value repeats y.mult times in Y
            assert_close(np.repeat(eigenvalues(y), y.mult), np.linalg.eigvalsh(Y.data))
            assert_close(np.repeat(singular_values(y), y.mult), singular_values(Y))
            sd = spectral_decomposition(y)
            assert_close(embed(model.kind, sd.reconstruct(), y.mult), Y.data)
            for p in (1.0, 2.0, 4.0, np.inf):
                assert abs(lp_norm(y, p) - lp_norm(Y, p)) <= 1e-12 * (1.0 + lp_norm(Y, p))
            for t in np.linspace(0.01, 0.99, 41):
                assert abs(singular_number(y, t) - singular_number(Y, t)) <= \
                    1e-12 * (1.0 + lp_norm(Y, np.inf))
            mid = float(np.median(eigenvalues(y)))
            e, E = spectral_projection(y, -np.inf, mid), spectral_projection(Y, -np.inf, mid)
            assert abs(e.trace - E.trace) <= 1e-12
            assert_close(e.dense_array(), E.dense_array())
            pos = functools.partial(np.clip, a_min=0.0, a_max=None)   # positive part
            assert_close(apply_function(y, pos).dense_array(),
                         apply_function(Y, pos).dense_array())
            sq = symmetrize(y @ y)
            assert_close(psd_sqrt(sq).dense_array(), psd_sqrt(ambient(sq)).dense_array())

    def test_foreign_embedding_is_lifted(self):
        """An embedding that is no level of the model is taken as level n."""
        tensor, pinching = AlgebraModel("tensor", 2, 3), AlgebraModel("pinching", 2, 3)
        y = random_level_element(tensor, 1, stream_rng(1))
        z = Operator(random_level_element(AlgebraModel("tensor", 2, 1), 1,
                                          stream_rng(2)).data, hermitian=True,
                     mult=8, layout="tensor")
        for model, x in ((pinching, y), (AlgebraModel("tensor", 4, 2), z)):
            for lev in range(model.n + 1):
                got = conditional_expectation(model, x, lev)
                assert_close(got.dense_array(), materialized_ce(model, x, lev))
        with pytest.raises(ShapeError):
            Operator(np.eye(2), mult=4, layout="diagonal")
        with pytest.raises(ShapeError):
            Operator(np.ones(2), mult=4, layout="tensor")


def _materializing_init(monkeypatch):
    """Store every operator at its ambient matrix, as the dense route did
    before operators carried their level: each level block is expanded
    with kron at construction, so every product, conditional expectation
    and eigen-solve runs at m^n."""
    original = Operator.__init__

    def init(self, data, hermitian=False, diagonal=None, mult=1, layout=None):
        if mult > 1:
            data = embed(layout, np.asarray(data), mult)
        original(self, data, hermitian=hermitian, diagonal=diagonal)

    monkeypatch.setattr(Operator, "__init__", init)


def _dense_cfg(kind, generator):
    return LILRunConfig(params=LILParameters(eta=1.2), horizon=6, seed=0,
                        model=AlgebraModel(kind, 2, 6), generator=generator, strict=False)


def _close(got, want):
    np.testing.assert_allclose(np.asarray(got, dtype=float), np.asarray(want, dtype=float),
                               rtol=1e-9, atol=1e-12)


class TestDenseRegression:
    @pytest.mark.parametrize("kind,generator", [("tensor", "tensor"), ("tensor", "model"),
                                                ("pinching", "model")])
    def test_matches_materialized_route(self, kind, generator, monkeypatch):
        got = run_lil_experiment(_dense_cfg(kind, generator))
        with monkeypatch.context() as mp:
            _materializing_init(mp)
            ref = run_lil_experiment(_dense_cfg(kind, generator))
            assert ref.e.mult == 1
        assert (got.n0, got.n1, got.n2) == (ref.n0, ref.n1, ref.n2)
        assert got.used_blocks == ref.used_blocks
        assert [(b.n, b.k_start, b.k_end) for b in got.blocks] == \
               [(b.n, b.k_start, b.k_end) for b in ref.blocks]
        _close([b.q_block for b in got.blocks], [b.q_block for b in ref.blocks])
        _close([b.q_theory for b in got.blocks], [b.q_theory for b in ref.blocks])
        _close([got.deficit, got.empirical_limsup], [ref.deficit, ref.empirical_limsup])
        assert got.checkpoints.keys() == ref.checkpoints.keys()
        for key in got.checkpoints:
            _close(got.checkpoints[key], ref.checkpoints[key])
        assert json.dumps(got.bc) == json.dumps(ref.bc)

    @pytest.mark.parametrize("kind,generator", [("tensor", "tensor"), ("pinching", "model")])
    def test_certificates_stored_at_block_level(self, kind, generator, monkeypatch):
        calls = []
        search = lil.column_maximal_norm_bounds

        def recording(xs, p, **kw):
            out = search(xs, p, **kw)
            calls.append(out.certificate)
            return out

        monkeypatch.setattr(lil, "column_maximal_norm_bounds", recording)
        cfg = _dense_cfg(kind, generator)
        rep = run_lil_experiment(cfg)
        n = cfg.model.n
        searched = [b for b in rep.blocks if b.k_end > b.k_start]   # empty blocks skip it
        assert len(calls) == 2 * len(searched)              # block family, then prefix
        assert any(b.k_end < n for b in searched)
        for b, cert in zip(searched, calls[::2]):
            assert cert.data.shape == (2 ** b.k_end,) * 2
            assert cert.mult == 2 ** (n - b.k_end)
        for b, cert in zip(searched, calls[1::2]):
            assert cert.data.shape == (2 ** b.k_end,) * 2
        assert rep.e.data.shape == (2 ** max(b.k_end for b in rep.blocks if b.used),) * 2
