"""Block decomposition engines, almost-uniform limsup, calibration runs."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from blas_pin import blas_threads, caller_blas_threads
from nclil import (AlgebraModel, BaselineConfig, ConfigError,
                   InsufficientHorizonError, LILParameters, LILRunConfig,
                   Projection, SemicircleConfig, ks_distance,
                   run_lil_experiment, scalar_kolmogorov_baseline,
                   semicircle_cdf, semicircular_demo)
from nclil.lil import (_bc_checks, _block_report,
                       _abs_top, _checkpoint_steps, _consume, _max_normalized, _Realization,
                       _walk, _windowed)
from nclil import lil, martingales
from nclil.cli import main
from nclil.martingales import (BracketProfile, LinearBracket, _atom_chunks, iterlog_seq,
                               stopping_indices)
from nclil.operators import _openblas
from nclil.rng import stream_rng
from nclil.tolerances import BC_TOLERANCES
from step_atoms import ATOM_MAX, reference_atoms, reference_unit


class TestParameters:
    def test_series_gate_enforced(self):
        with pytest.raises(ConfigError):
            LILParameters(eta=1.5, delta=0.1, eps=0.3)   # exponent 1.21/1.3 < 1
        p = LILParameters()
        assert p.series_exponent == pytest.approx(1.1)

    def test_eps_prime_auto(self):
        p = LILParameters()                               # no room at defaults
        assert p.eps_prime_room < 0
        assert p.eps_prime_resolved == 0.05
        q = LILParameters(eta=1.1, delta=0.05, delta_prime=1.0, eps=0.1)
        assert q.eps_prime_room > 0
        assert q.eps_prime_resolved == pytest.approx(q.eps_prime_room / 2)

    def test_reduction_certificate(self):
        assert not LILParameters().reduction_certified
        q = LILParameters(eta=1.1, delta=0.05, delta_prime=1.0, eps=0.1)
        assert q.reduction_certified
        assert q.transfer_constant <= q.threshold

    def test_threshold(self):
        assert LILParameters(delta_prime=0.1).threshold == pytest.approx(2.2)

    def test_threshold_must_be_finite(self):
        """An infinite threshold would pass the limsup gate whatever the walk did."""
        with pytest.raises(ConfigError, match="delta_prime"):
            LILParameters(delta_prime=1e308)
        edge = LILParameters(beta=2.0, delta_prime=8e307)
        assert math.isfinite(edge.threshold)


class TestStreamingEngine:
    def test_deterministic_json(self):
        cfg = LILRunConfig(params=LILParameters(), horizon=4000, paths=64, seed=3)
        a = run_lil_experiment(cfg)
        b = run_lil_experiment(cfg)
        assert json.dumps(a.to_json(), sort_keys=True) == \
               json.dumps(b.to_json(), sort_keys=True)
        assert "runtime" not in json.dumps(a.to_json())

    def test_postconditions(self):
        cfg = LILRunConfig(params=LILParameters(), horizon=20000, paths=256, seed=1)
        rep = run_lil_experiment(cfg)
        assert rep.engine == "streaming-ensemble"
        assert 0.0 <= rep.deficit <= rep.union_bound + 1e-12
        assert rep.empirical_limsup <= rep.threshold + 1e-12
        assert rep.bc["ok"]
        assert rep.n0 == max(rep.n1, rep.n2)
        assert rep.used_blocks == [n for n in range(1, len(rep.blocks) + 1)
                                   if n >= rep.n0]
        assert abs(rep.e.trace - (1.0 - rep.deficit)) < 1e-12
        for b in rep.blocks:
            assert b.semantics == "empirical"
            assert b.k_start < b.k_end
            assert 0.0 <= b.q_block <= 1.0
        terms = rep.series_theory_terms
        assert all(x >= y for x, y in zip(terms, terms[1:]))

    def test_deficit_counts_every_used_block(self):
        cfg = LILRunConfig(params=LILParameters(), horizon=20000, paths=256, seed=1)
        rep = run_lil_experiment(cfg)
        singles = [b.q_block for b in rep.blocks if b.used]
        assert rep.deficit >= max(singles) - 1e-12

    def test_checkpoint_grid(self):
        cfg = LILRunConfig(params=LILParameters(), horizon=5000, paths=64,
                           seed=2, checkpoints=50)
        rep = run_lil_experiment(cfg)
        cps = rep.checkpoints
        lengths = {len(v) for v in cps.values()}
        assert len(lengths) == 1
        assert cps["m"] == sorted(set(cps["m"]))
        assert all(r <= a + 1e-12 for r, a in zip(cps["r_max_kept"], cps["r_max_all"]))

    def test_insufficient_horizon(self):
        with pytest.raises(InsufficientHorizonError):
            run_lil_experiment(LILRunConfig(params=LILParameters(), horizon=2,
                                            paths=16, seed=0))

    def test_strict_gate_vs_waived(self):
        params = LILParameters(eps_prime=0.001)      # unreachable ratio gate
        cfg = LILRunConfig(params=params, horizon=20000, paths=64, seed=1)
        with pytest.raises(InsufficientHorizonError):
            run_lil_experiment(cfg)
        cfg2 = LILRunConfig(params=params, horizon=20000, paths=64, seed=1,
                            strict=False)
        rep = run_lil_experiment(cfg2)
        assert rep.gates_waived
        assert rep.used_blocks == [b.n for b in rep.blocks]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LILRunConfig(paths=0)
        with pytest.raises(ConfigError):
            LILRunConfig(checkpoints=1)
        # a NaN variance used to pass and fail later with "no complete block",
        # an infinite one with a bare OverflowError
        for law in ("rademacher", "uniform"):
            for variance in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ConfigError, match="variance must be finite and > 0"):
                    LILRunConfig(law=law, variance=variance)

    def test_variance_scales_blocks(self):
        a = run_lil_experiment(LILRunConfig(horizon=20000, paths=64, seed=1))
        b = run_lil_experiment(LILRunConfig(horizon=20000, paths=64, seed=1,
                                            variance=4.0))
        # quadrupled variance reaches each eta-adic threshold in a quarter the steps
        ka = [blk.k_end for blk in a.blocks]
        kb = [blk.k_end for blk in b.blocks][:len(ka)]
        for x, y in zip(ka, kb):
            assert abs(y - math.ceil(x / 4)) <= 1


class TestDenseEngine:
    def test_certificate_route(self):
        model = AlgebraModel("tensor", 2, 8)
        cfg = LILRunConfig(params=LILParameters(eta=1.2), horizon=8, paths=4,
                           model=model, generator="model", seed=5, strict=False)
        rep = run_lil_experiment(cfg)
        assert rep.engine == "dense-certificate"
        assert all(b.semantics == "certificate" for b in rep.blocks)
        assert rep.bc["union_bound_ok"]
        assert rep.deficit <= rep.union_bound + 1e-8
        if math.isfinite(rep.empirical_limsup):
            assert rep.empirical_limsup <= rep.threshold * (1.0 + 1e-4)
        p = rep.e
        assert isinstance(p, Projection)

    def test_diagonal_carrier_keeps_vector_storage(self):
        model = AlgebraModel("diagonal", 2, 14)
        cfg = LILRunConfig(params=LILParameters(eta=1.2, delta=0.2,
                                                delta_prime=0.2, eps=0.2),
                           horizon=14, model=model, generator="model",
                           seed=7, strict=False)
        rep = run_lil_experiment(cfg)
        assert rep.e.diagonal
        assert rep.deficit <= rep.union_bound + 1e-8

    def test_strict_dense_raises_without_certified_window(self):
        model = AlgebraModel("tensor", 2, 8)
        cfg = LILRunConfig(params=LILParameters(eta=1.2), horizon=8, model=model,
                           generator="model", seed=5, strict=True)
        with pytest.raises(InsufficientHorizonError):
            run_lil_experiment(cfg)


@pytest.mark.skipif(not _openblas(), reason="no OpenBLAS to pin")
class TestDenseBlasPin:
    """The dense engine runs on one BLAS thread; the caller's setting comes back."""

    def test_dense_route_runs_on_one_thread(self, monkeypatch):
        seen = []

        def spy(fn):
            def wrapped(*args, **kwargs):
                seen.append((fn.__name__, blas_threads()))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(lil, "gen_model_martingale", spy(lil.gen_model_martingale))
        monkeypatch.setattr(lil, "column_maximal_norm_bounds",
                            spy(lil.column_maximal_norm_bounds))
        model = AlgebraModel("tensor", 2, 8)
        with caller_blas_threads(2):
            callers = blas_threads()
            pinned = [1] * len(callers)
            rep = run_lil_experiment(LILRunConfig(
                params=LILParameters(eta=1.2), horizon=8, model=model, generator="model",
                seed=5, strict=False))
            assert {name for name, _ in seen} == {"gen_model_martingale",
                                                  "column_maximal_norm_bounds"}
            assert all(threads == pinned for _, threads in seen)
            assert rep.to_json()["blas_threads"] == 1
            assert blas_threads() == callers
            seen.clear()
            with pytest.raises(InsufficientHorizonError):     # strict, no usable block
                run_lil_experiment(LILRunConfig(
                    params=LILParameters(eta=1.2), horizon=8, model=model,
                    generator="model", seed=5, strict=True))
            assert seen == [("gen_model_martingale", pinned)]
            assert blas_threads() == callers

    def test_cli_outputs_ignore_the_callers_threads(self, tmp_path):
        outs = []
        for threads in (1, 2):
            out = tmp_path / f"threads-{threads}"
            with caller_blas_threads(threads):
                assert main(["lil-run", "--model", "tensor:2:4", "--eta", "1.2",
                             "--allow-uncertified", "--seed", "2", "--out", str(out)]) == 0
            outs.append(out)
        payloads = []
        for out in outs:
            summary = json.loads((out / "summary.json").read_text())
            del summary["runtime_seconds"]
            assert summary["blas_threads"] == 1
            payloads.append(json.dumps(summary, sort_keys=True))
        assert payloads[0] == payloads[1]
        for name in ("blocks.csv", "checkpoints.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestBlockCore:
    @pytest.mark.parametrize("engine, union_edge, limsup_edge", [
        ("streaming-ensemble", 0.3 + 1e-12, 2.2 + 1e-12),
        ("dense-certificate", 0.3 + 1e-8, 2.2 * (1.0 + 1e-4)),
    ])
    def test_bc_tolerance_edges(self, engine, union_edge, limsup_edge):
        def bc(deficit=0.0, limsup=1.0):
            return _bc_checks(deficit, 0.3, limsup, 2.2, 5.0, BC_TOLERANCES[engine])

        assert bc(deficit=union_edge)["union_bound_ok"]
        assert not bc(deficit=np.nextafter(union_edge, np.inf))["union_bound_ok"]
        assert bc(limsup=limsup_edge)["limsup_below_threshold_ok"]
        past = bc(limsup=np.nextafter(limsup_edge, np.inf))
        assert not past["limsup_below_threshold_ok"] and not past["ok"]
        assert bc(limsup=math.nan)["ok"]

    def test_walk_carries_partial_sums_across_chunks(self):
        incs = np.random.default_rng(0).standard_normal((23, 4))
        # Exact in the documented order: cumsum within the chunk, the carry apart.
        expected, carry = [], np.zeros(4)
        for pos in range(0, 23, 5):
            part = np.cumsum(incs[pos:pos + 5], axis=0)
            expected.append((carry, part))
            carry = carry + part[-1]

        # The walk reuses its arrays, so each chunk is copied as it comes.
        blocks = [(pos, incs[pos:pos + 5].copy()) for pos in range(0, 23, 5)]
        chunks = [(pos, S.copy(), P.copy()) for pos, S, P in _walk(blocks, 4)]
        assert [pos for pos, _, _ in chunks] == [0, 5, 10, 15, 20]
        assert [len(P) for _, _, P in chunks] == [5, 5, 5, 5, 3]
        for (_, S, P), (carry, part) in zip(chunks, expected):
            np.testing.assert_array_equal(S, carry)
            np.testing.assert_array_equal(P, part)
        walked = np.concatenate([S + P for _, S, P in chunks], axis=0)
        np.testing.assert_allclose(walked, np.cumsum(incs, axis=0), rtol=1e-12)

    def test_walk_sums_each_block_in_place(self):
        """P is the chunk's own block, summed in its own dtype; S is float64."""
        blocks = [(pos, np.full((min(4, 10 - pos), 2), 1, dtype=np.int8))
                  for pos in range(0, 10, 4)]
        walked = [(S.dtype, P, S[0] + P[-1, 0]) for _, S, P in _walk(blocks, 2)]
        assert [(dtype, total) for dtype, _, total in walked] == \
            [(np.float64, 4.0), (np.float64, 8.0), (np.float64, 10.0)]
        for (_, block), (_, P, _) in zip(blocks, walked):
            assert P is block and P.dtype == np.int8
            np.testing.assert_array_equal(P[:, 0], np.arange(1, len(P) + 1))

    def test_walk_hands_out_the_chunkers_buffer(self, monkeypatch):
        """Every partial-sum block of a walk over the chunker is a view of its one buffer."""
        monkeypatch.setattr(martingales, "_STREAM_TILE", 4 * 2)          # chunks of 4 steps
        seen = [P for _, _, P in _walk(_atom_chunks(stream_rng(0), "rademacher", 2, 10), 2)]
        assert [len(P) for P in seen] == [4, 4, 2]
        assert all(np.shares_memory(seen[0], P) for P in seen[1:])

    @pytest.mark.parametrize("law, chunk, dtype", [
        ("rademacher", 127, np.int8), ("rademacher", 128, np.int16),
        ("rademacher", 32767, np.int16), ("rademacher", 32768, np.int32),
        ("uniform", 32768, np.int32),
        ("uniform", 32769, np.int64)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_walk_partials_fit_the_narrowest_integer(self, monkeypatch, law, chunk, dtype,
                                                     sign):
        """A walk of the largest atom, all +atom_max or all -atom_max, reaches
        ±chunk * atom_max within a chunk; its partials take the narrowest type
        that holds that, and wrap nowhere."""
        paths, total = 2, chunk + 3                  # the second chunk starts from the carry
        atom = sign * ATOM_MAX[law]
        monkeypatch.setattr(martingales, "_STREAM_TILE", chunk * paths)

        def largest_atoms():                         # the chunker picks the dtype
            for pos, block in _atom_chunks(stream_rng(0), law, paths, total):
                block[:] = atom
                yield pos, block

        chunks = [(pos, S.copy(), P.copy()) for pos, S, P in _walk(largest_atoms(), paths)]
        assert [P.dtype for _, _, P in chunks] == [dtype, dtype]
        narrower = {np.int16: np.int8, np.int32: np.int16, np.int64: np.int32}.get(dtype)
        assert narrower is None or chunk * ATOM_MAX[law] > np.iinfo(narrower).max
        steps = np.full((total, paths), atom, dtype=np.int64)
        for pos, S, P in chunks:
            np.testing.assert_array_equal(P, np.cumsum(steps[pos:pos + len(P)], axis=0))
            np.testing.assert_array_equal(S, np.full(paths, float(atom * pos)))
        assert chunks[0][2][-1, 0] == atom * chunk
        walked = np.concatenate([S + P for _, S, P in chunks], axis=0)
        np.testing.assert_array_equal(walked, np.cumsum(steps, axis=0))


def _paths_major_walk(rng, law, paths, total, chunk):
    """The paths-major walk the steps-major one replaced, kept as a reference:
    fresh chunked draws of the reference atoms, transpose, an int64 cumsum
    along the steps, then the carry.  Yields the integer sums of the atoms;
    the martingale is unit times them."""
    S = np.zeros(paths, dtype=np.int64)
    pos = 0
    while pos < total:
        take = min(chunk, total - pos)
        block = reference_atoms(rng, law, take, paths)
        C = np.ascontiguousarray(block.T)
        np.cumsum(C, axis=1, out=C)
        C += S[:, None]
        S = C[:, -1].copy()
        yield C
        pos += take


def _reference_stream_report(cfg, chunk):
    """The streaming engine's report, realized from the reference walk: the
    integer sums of the atoms against the normalizers divided by the unit."""
    pars, N, P = cfg.params, cfg.horizon, cfg.paths
    bound, unit = reference_unit(cfg.law, cfg.variance)
    s2 = cfg.variance * np.arange(1, N + 1, dtype=np.float64)
    u = np.sqrt(iterlog_seq(s2))
    norm = np.sqrt(s2) * u

    def realize(rule, used):
        ks, B = rule.ks, rule.blocks
        total = int(ks[-1])
        rng = stream_rng(cfg.seed, label=f"lil-stream-{cfg.law}")
        absS = np.abs(np.concatenate(
            list(_paths_major_walk(rng, cfg.law, P, total, chunk)), axis=1))
        R = absS / (norm / unit)[None, :total]
        sections = range(len(ks) - 1)
        blockmax = np.array([R[:, ks[i]:ks[i + 1]].max(axis=1, initial=-np.inf)
                             for i in sections])
        snapshots = np.array([absS[:, :ks[i + 1]].max(axis=1, initial=0) for i in sections])
        cp_steps = _checkpoint_steps(total, cfg.checkpoints)
        cp_rows = R[:, cp_steps - 1].T
        exceed = blockmax[1:B + 1] > pars.threshold
        exceed_theory = snapshots[1:B + 1] > (pars.beta * (1.0 + pars.delta)
                                              * norm[ks[2:] - 1] / unit)[:, None]
        used_ix = np.asarray(used)
        kept = ~exceed[used_ix - 1].any(axis=0)
        if kept.any():
            # the mean is the exact integer sum of the kept |S_m|, then two divisions
            kept_sums = absS[kept][:, cp_steps - 1].sum(axis=0)
            max_kept = cp_rows[:, kept].max(axis=1)
            mean_kept = kept_sums / np.count_nonzero(kept) / (norm / unit)[cp_steps - 1]
        else:                                   # the engine's NaN over no kept path
            max_kept = mean_kept = np.full(len(cp_steps), np.nan)
        return _Realization(
            semantics="empirical", q_block=exceed.mean(axis=1),
            q_theory=exceed_theory.mean(axis=1),
            e=Projection(kept.astype(np.float64), diagonal=True), deficit=float((~kept).mean()),
            levels=s2[ks[used_ix + 1] - 1],
            kept_sup=blockmax[used_ix][:, kept].max(axis=1, initial=-np.inf),
            cp_steps=cp_steps, cp_stats={"r_max_all": cp_rows.max(axis=1).tolist(),
                                         "r_max_kept": max_kept.tolist(),
                                         "r_mean_kept": mean_kept.tolist()})

    profile = BracketProfile(s2, u, np.broadcast_to(bound, (N,)))   # whole-horizon arrays
    report = _block_report("streaming-ensemble", cfg, profile, realize, law=cfg.law,
                           carrier=f"paths={P}", knob="the variance")
    report.blas_threads = 1 if _openblas() else None      # the runner's stamp
    return report


_ODD_CHUNK = 333       # rows per walk chunk under a patched streaming tile


def _patch_tile(monkeypatch, tile):
    """Set the one ensemble tile, ``martingales._STREAM_TILE``, to ``tile``
    entries and return the list that collects the (pos, steps, dtype) of
    every block the streaming engines' chunker draws from then on."""
    monkeypatch.setattr(martingales, "_STREAM_TILE", tile)
    draws = []
    chunker = lil._atom_chunks

    def recording(*args):
        for pos, block in chunker(*args):
            draws.append((pos, len(block), block.dtype))
            yield pos, block

    monkeypatch.setattr(lil, "_atom_chunks", recording)
    return draws


def _assert_chunks(draws, rows):
    """In every walk recorded (each starts at pos 0), each draw but the last
    took ``rows`` steps and the last at most that.  Returns the walks' draw counts."""
    starts = [i for i, (pos, _, _) in enumerate(draws) if pos == 0]
    assert starts and starts[0] == 0
    counts = []
    for a, b in zip(starts, starts[1:] + [len(draws)]):
        takes = [take for _, take, _ in draws[a:b]]
        assert set(takes[:-1]) <= {rows} and 1 <= takes[-1] <= rows
        counts.append(len(takes))
    return counts


class TestMaxNormalized:
    """The streaming kernel's screened divide against a full divide-then-max of
    |S + partials|, bit for bit; every case runs on the walk's integer
    partials of both laws (rademacher int8 and int16, uniform int32)."""

    DTYPES = (np.int8, np.int16, np.int32)

    @staticmethod
    def run(S, part, den, best, columns=None):
        """(flagged, best after) of the helper, checked against the reference,
        with a work buffer of ``columns`` batch columns (default: all of
        them); S and the partials are left as they were."""
        expected = np.maximum(best, (np.abs(S + part) / den[:, None]).max(axis=0))
        S0, part0, best = S.copy(), part.copy(), best.copy()
        work = np.full((len(den) + 2) * (columns or len(S)), np.nan)
        flagged = _max_normalized(S, part, _abs_top(S, part), den, best, work)
        np.testing.assert_array_equal(best, expected)
        np.testing.assert_array_equal(S, S0)
        np.testing.assert_array_equal(part, part0)
        return flagged, best

    @staticmethod
    def block(seed, dtype, steps=7, paths=64):
        """Carried sums S and the partials of a short stretch of atoms after
        them (rademacher ±1, or uniform odd atoms for int32), with their
        sqrt(n L(n)) normalizers divided by the law's unit."""
        rng = np.random.default_rng(seed)
        law = "uniform" if dtype == np.int32 else "rademacher"
        atom_max = ATOM_MAX[law]
        atoms = 2 * rng.integers(0, atom_max + 1, size=(steps, paths)) - atom_max
        S = (atom_max * rng.integers(-40, 41, size=paths)).astype(np.float64)
        part = np.cumsum(atoms, axis=0).astype(dtype)
        ns = np.arange(300, 300 + steps, dtype=np.float64)
        return S, part, np.sqrt(ns * iterlog_seq(ns)) / reference_unit(law, 1.0)[1]

    def test_abs_top_is_the_column_max_of_abs(self):
        for dtype in self.DTYPES:
            S, part, _ = self.block(0, dtype)
            np.testing.assert_array_equal(_abs_top(S, part), np.abs(S + part).max(axis=0))

    def test_minus_inf_start_flags_every_column(self):
        for dtype in self.DTYPES:
            S, part, den = self.block(1, dtype)
            flagged, _ = self.run(S, part, den, np.full(len(S), -np.inf))
            assert flagged == len(S)

    def test_none_flagged_leaves_everything(self):
        for dtype in self.DTYPES:
            S, part, den = self.block(2, dtype)
            best = np.full(len(S), 10.0)
            flagged, got = self.run(S, part, den, best)
            assert flagged == 0
            np.testing.assert_array_equal(got, best)

    def test_tie_is_not_flagged(self):
        for dtype in self.DTYPES:
            S, part, den = self.block(3, dtype)
            best = _abs_top(S, part) / den.min()     # the bound itself, exactly
            flagged, got = self.run(S, part, den, best)
            assert flagged == 0
            np.testing.assert_array_equal(got, best)
            nudged = best.copy()
            nudged[5] = np.nextafter(best[5], -np.inf)   # one ulp below: flagged alone
            assert self.run(S, part, den, nudged)[0] == 1

    def test_all_flagged(self):
        for dtype in self.DTYPES:
            S, part, den = self.block(4, dtype)
            S = np.abs(S) + 20.0                     # every |S + P| above zero
            flagged, _ = self.run(S, part, den, np.zeros(len(S)))
            assert flagged == len(S)

    def test_non_monotone_normalizer(self):
        # the largest quotient sits at the smallest normalizer, in the middle
        den = np.array([30.0, 25.0, 10.0, 20.0, 35.0])
        S = np.full(8, 4.0)
        for dtype in self.DTYPES:
            part = np.full((5, 8), 5, dtype=dtype)   # |S + P| = 9 ...
            part[2, 3] = 21                          # ... but 25 at step 3 of path 3
            flagged, got = self.run(S, part, den, np.ones(8))
            assert flagged == 1
            assert got[3] == 2.5 and np.all(np.delete(got, 3) == 1.0)

    @pytest.mark.parametrize("columns", [1, 3, 7])
    def test_batches_with_a_partial_last_one(self, columns):
        """A buffer of a few columns: the 64 flagged columns of a -inf start go
        through it in several batches, the last one partial at 3 and 7."""
        for dtype in self.DTYPES:
            S, part, den = self.block(7, dtype, steps=9)
            flagged, _ = self.run(S, part, den, np.full(len(S), -np.inf), columns)
            assert flagged == len(S)
            best = _abs_top(S, part) / den.min()     # the screen's own bound ...
            best[::5] *= 0.9                         # ... below it at 13 columns
            assert self.run(S, part, den, best, columns)[0] == 13

    @pytest.mark.parametrize("seed", range(6))
    def test_both_branches(self, seed):
        """A best drawn around the block's own quotients flags a few columns
        (one batch of a quarter of them) or many (several batches)."""
        for dtype in self.DTYPES:
            S, part, den = self.block(seed, dtype, steps=11, paths=200)
            full = (np.abs(S + part) / den[:, None]).max(axis=0)
            rng = np.random.default_rng(seed)
            for share, one_batch in ((0.1, True), (0.6, False)):
                best = full * rng.uniform(1.0, 1.2, size=full.size)
                best[rng.random(full.size) < share] *= 0.8
                flagged, _ = self.run(S, part, den, best, columns=full.size // 4)
                assert 0 < flagged
                assert (4 * flagged <= full.size) == one_batch

    @pytest.mark.parametrize("paths", [2, 4, 4096])
    def test_work_buffer_holds_a_chunk_column(self, paths):
        """A quarter tile, or one whole chunk column when the chunk is taller
        (65536 rows at 2 paths, 32768 at 4), with its S and best entries."""
        rows = martingales._STREAM_TILE // paths
        work = lil._work_buffer(paths)
        assert len(work) // (rows + 2) >= 1
        assert len(work) == max(martingales._STREAM_TILE // 4, rows + 2)


class TestConsumeColumns:
    """Every entry of the streaming kernel's tables depends on its own path
    only: run on column ranges of one chunker's blocks, the tables
    concatenate to the columns of the full-width run bit for bit."""

    @pytest.mark.parametrize("splits", [(37,), (37, 133)])       # 133 = 64 * 2 + 5
    @pytest.mark.parametrize("law", ["rademacher", "uniform"])
    def test_column_ranges_concatenate(self, monkeypatch, law, splits):
        paths, rows, total, variance = 200, _ODD_CHUNK, 3000, 0.37
        monkeypatch.setattr(martingales, "_STREAM_TILE", rows * paths)
        blocks = [(pos, block.copy())
                  for pos, block in _atom_chunks(stream_rng(5), law, paths, total)]
        bound, unit = reference_unit(law, variance)
        profile = LinearBracket(variance, total, bound)
        ends = stopping_indices(profile, 1.2).ks
        cp_steps = _checkpoint_steps(total, 40)
        assert len(blocks) > 2 and len(ends) > 10 and len(cp_steps) > 10

        def tables(a, b):
            walk = _walk(((pos, block[:, a:b].copy()) for pos, block in blocks), b - a)
            norms = _windowed(lambda i, j: profile.norm_range(i, j) / unit, total)
            return _consume(walk, b - a, ends, norms, cp_steps,
                            np.min_scalar_type(ATOM_MAX[law] * total))

        normmax, absmax, cp_abs, divided = tables(0, paths)
        cuts = (0, *splits, paths)
        parts = [tables(a, b) for a, b in zip(cuts, cuts[1:])]
        for whole, part in ((normmax, [p[0] for p in parts]), (absmax, [p[1] for p in parts])):
            got = np.concatenate(part, axis=1)
            assert got.dtype == whole.dtype
            np.testing.assert_array_equal(got, whole)
        np.testing.assert_array_equal(np.concatenate([p[2] for p in parts], axis=0), cp_abs)
        assert sum(p[3] for p in parts) == divided > 0
        assert np.isfinite(normmax).all() and absmax.dtype.kind == "u"


class TestWalkRegression:
    """Bit-identity of the steps-major walk and the streaming kernel with the
    paths-major reference: at an odd chunk size, for both laws at a non-unit
    variance and for rademacher at unit variance, all on integer partials,
    and in the engines' own 32-step tile at 4096 paths.  63 paths is odd and takes
    part of a raw word a step.  The checkpoint table is also checked at its
    edges: a walk past 65535 steps, one checkpoint, and no path kept."""

    @staticmethod
    def check_report(monkeypatch, law, variance, paths, rows, horizon, eta=1.5):
        """lil-run against the reference walk, in chunks of ``rows`` steps;
        returns the dtypes of the draws' blocks."""
        draws = _patch_tile(monkeypatch, rows * paths)
        cfg = LILRunConfig(params=LILParameters(eta=eta, eps_prime=0.02), horizon=horizon,
                           paths=paths, law=law, variance=variance, seed=4, strict=False)
        got, ref = run_lil_experiment(cfg), _reference_stream_report(cfg, rows)
        (count,) = _assert_chunks(draws, rows)             # one walk, several chunks
        assert count > 2
        assert ref.deficit > 0.0          # some paths exceed, so e is not trivial
        assert json.dumps(got.to_json(), sort_keys=True) == \
               json.dumps(ref.to_json(), sort_keys=True)
        assert got.checkpoints == ref.checkpoints
        np.testing.assert_array_equal(got.e.data, ref.e.data)
        return {dtype for _, _, dtype in draws}

    @staticmethod
    def check_baseline(monkeypatch, law, paths, rows, horizon):
        """baseline-scalar's per_path against the reference walk, in chunks of
        ``rows`` steps; returns the dtypes of the draws' blocks."""
        draws = _patch_tile(monkeypatch, rows * paths)
        cfg = BaselineConfig(paths=paths, horizon=horizon, law=law, seed=6)
        rng = stream_rng(cfg.seed, label=f"baseline-{law}")
        unit = reference_unit(law, 1.0)[1]
        S = np.concatenate(list(_paths_major_walk(rng, law, cfg.paths, cfg.horizon, rows)),
                           axis=1)
        lo = cfg.horizon // 10
        ns = np.arange(lo + 1, cfg.horizon + 1, dtype=np.float64)
        den = np.sqrt(ns * iterlog_seq(ns)) / unit
        expected = (np.abs(S[:, lo:]) / den).max(axis=1, initial=0.0)
        np.testing.assert_array_equal(scalar_kolmogorov_baseline(cfg).per_path, expected)
        assert _assert_chunks(draws, rows) == [-(-cfg.horizon // rows)]
        return {dtype for _, _, dtype in draws}

    @pytest.mark.parametrize("paths", [63, 64, 512])
    @pytest.mark.parametrize("law, variance, eta", [
        ("rademacher", 0.37, 1.5), ("uniform", 0.37, 1.5), ("rademacher", 1.0, 1.05)],
        ids=["rademacher", "uniform", "unit-eta-1.05"])
    def test_streaming_report_matches_reference(self, monkeypatch, law, variance, eta, paths):
        """At eta 1.05 and unit variance blocks 1-6, 8-10, 12, 13, 15, 17 and 20
        are empty, and the first chunk closes all of them and a few more."""
        ks = stopping_indices(LinearBracket(variance, 6000, 1.0), eta).ks
        empty = [n for n in range(1, len(ks) - 1) if ks[n] == ks[n + 1]]
        assert empty == ([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 15, 17, 20] if eta == 1.05 else [])
        dtype = np.int16 if law == "rademacher" else np.int32
        assert self.check_report(monkeypatch, law, variance, paths, _ODD_CHUNK, 6000, eta) == \
            {np.dtype(dtype)}

    @pytest.mark.parametrize("paths", [63, 64, 512])
    def test_unit_rademacher_report_matches_reference(self, monkeypatch, paths):
        assert self.check_report(monkeypatch, "rademacher", 1.0, paths, _ODD_CHUNK, 6000) == \
            {np.dtype(np.int16)}

    @pytest.mark.parametrize("paths", [63, 64, 512])
    @pytest.mark.parametrize("law", ["rademacher", "uniform"])
    def test_baseline_per_path_matches_reference(self, monkeypatch, law, paths):
        dtype = np.int16 if law == "rademacher" else np.int32
        assert self.check_baseline(monkeypatch, law, paths, _ODD_CHUNK, 5000) == {np.dtype(dtype)}

    def test_engines_own_tile_matches_reference(self, monkeypatch):
        """Both engines at 4096 paths, in the default tile: 32-step chunks of
        int8 partials."""
        rows = martingales._STREAM_TILE // 4096
        assert rows == 32
        for dtypes in (self.check_report(monkeypatch, "rademacher", 1.0, 4096, rows, 1000),
                       self.check_baseline(monkeypatch, "rademacher", 4096, rows, 1000)):
            assert dtypes == {np.dtype(np.int8)}

    def test_walk_past_65535_steps(self, monkeypatch):
        """A unit rademacher walk through more than 65535 steps keeps its |S_m|
        as uint32; every path is kept at this size."""
        table_dtypes = []
        stats = lil._checkpoint_stats

        def recording(cp_abs, den, kept):
            table_dtypes.append(cp_abs.dtype)
            return stats(cp_abs, den, kept)

        monkeypatch.setattr(lil, "_checkpoint_stats", recording)
        _patch_tile(monkeypatch, 4096 * 8)
        cfg = LILRunConfig(params=LILParameters(eps_prime=0.02), horizon=90_000, paths=8,
                           seed=4, strict=False)
        got, ref = run_lil_experiment(cfg), _reference_stream_report(cfg, 4096)
        assert got.blocks[-1].k_end > 65535
        assert table_dtypes == [np.dtype(np.uint32)]
        assert json.dumps(got.to_json(), sort_keys=True) == \
               json.dumps(ref.to_json(), sort_keys=True)
        assert got.checkpoints == ref.checkpoints

    @pytest.mark.parametrize("law, variance", [("rademacher", 1.0), ("uniform", 0.37)])
    def test_mean_kept_within_two_ulp_of_exact(self, law, variance):
        """r_mean_kept against the exact rational mean of |S_m| / den[m] over the
        kept paths, from the reference walk's integer sums and the engine's
        float normalizers: two correctly rounded divisions stay within 2 ulp."""
        cfg = LILRunConfig(params=LILParameters(eps_prime=0.02), horizon=6000, paths=512,
                           law=law, variance=variance, seed=4, strict=False)
        got = run_lil_experiment(cfg)
        kept = got.e.data.astype(bool)
        assert 0 < kept.sum() < cfg.paths
        rng = stream_rng(cfg.seed, label=f"lil-stream-{law}")
        absS = np.abs(np.concatenate(list(_paths_major_walk(
            rng, law, cfg.paths, got.blocks[-1].k_end, _ODD_CHUNK)), axis=1))
        cps = got.checkpoints
        s2 = variance * np.asarray(cps["m"], dtype=np.float64)
        den = np.sqrt(s2) * np.sqrt(iterlog_seq(s2)) / reference_unit(law, variance)[1]
        for m, d, mean in zip(cps["m"], den, cps["r_mean_kept"]):
            exact = Fraction(int(absS[kept, m - 1].sum())) / (int(kept.sum()) * Fraction(d))
            assert abs(Fraction(mean) - exact) <= 2 * Fraction(math.ulp(float(exact))), m

    def test_one_checkpoint_matches_reference(self):
        """At variance 3 the last block ends at step 1, so the checkpoint table
        has one column; uniform steps make the kept |S_1| differ path to path."""
        cfg = LILRunConfig(params=LILParameters(eps_prime=0.02), horizon=2, paths=1000,
                           law="uniform", variance=3.0, seed=4, strict=False)
        got, ref = run_lil_experiment(cfg), _reference_stream_report(cfg, 1)
        assert got.checkpoints["m"] == [1] and got.deficit == 0.0
        assert json.dumps(got.to_json(), sort_keys=True) == \
               json.dumps(ref.to_json(), sort_keys=True)
        assert got.checkpoints == ref.checkpoints

    def test_no_path_kept(self):
        """A lone path that exceeds in a used block: e is zero and the kept
        checkpoint statistics are NaN, in the engine and in the reference.
        NaN is not equal to itself, so the checkpoints compare as JSON."""
        cfg = LILRunConfig(params=LILParameters(eps_prime=0.02), horizon=2000, paths=1,
                           seed=11, strict=False)
        got, ref = run_lil_experiment(cfg), _reference_stream_report(cfg, _ODD_CHUNK)
        assert got.deficit == 1.0 and not got.e.data.any()
        assert json.dumps(got.to_json(), sort_keys=True) == \
               json.dumps(ref.to_json(), sort_keys=True)
        assert json.dumps(got.checkpoints) == json.dumps(ref.checkpoints)
        np.testing.assert_array_equal(got.e.data, ref.e.data)
        cps = got.checkpoints
        assert np.isnan(cps["r_max_kept"]).all() and np.isnan(cps["r_mean_kept"]).all()
        assert len(cps["r_max_kept"]) == len(cps["r_mean_kept"]) == len(cps["m"]) > 1


class TestTallChunks:
    """At 2 and 4 paths the engines' own tile walks in chunks of 65536 and
    32768 rows, at least as many as a quarter tile's work buffer holds; the
    kernel still takes a whole chunk column in one ``_max_normalized`` call,
    and both engines match the reference walk."""

    @staticmethod
    def tallest_call(monkeypatch):
        """A list that collects the row count of every ``_max_normalized`` call."""
        heights = []
        screened = lil._max_normalized

        def recording(S, P, top, den, best, work):
            heights.append(len(den))
            return screened(S, P, top, den, best, work)

        monkeypatch.setattr(lil, "_max_normalized", recording)
        return heights

    @pytest.mark.parametrize("paths, rows", [(2, 65536), (4, 32768)])
    def test_streaming_report(self, monkeypatch, paths, rows):
        heights = self.tallest_call(monkeypatch)
        draws = _patch_tile(monkeypatch, martingales._STREAM_TILE)
        cfg = LILRunConfig(params=LILParameters(eps_prime=0.02), horizon=10 * rows,
                           paths=paths, seed=4, strict=False)
        got, ref = run_lil_experiment(cfg), _reference_stream_report(cfg, rows)
        assert len(_assert_chunks(draws, rows)) == 1 and max(heights) == rows
        assert json.dumps(got.to_json(), sort_keys=True) == \
               json.dumps(ref.to_json(), sort_keys=True)
        np.testing.assert_array_equal(got.e.data, ref.e.data)

    @pytest.mark.parametrize("paths, rows", [(2, 65536), (4, 32768)])
    def test_baseline_per_path(self, monkeypatch, paths, rows):
        heights = self.tallest_call(monkeypatch)
        assert paths * rows == martingales._STREAM_TILE
        assert TestWalkRegression.check_baseline(monkeypatch, "rademacher", paths, rows,
                                                 3 * rows) == {np.dtype(np.int32)}
        assert max(heights) == rows


class TestChunkInvariance:
    """An iid rademacher step draws whole words, so the walk's chunk changes
    neither the draws nor (integer sums) the rounding."""

    @pytest.mark.parametrize("paths", [6, 64, 4096])
    def test_outputs_equal_across_chunks(self, monkeypatch, paths):
        def outputs():
            run = run_lil_experiment(LILRunConfig(params=LILParameters(eps_prime=0.02),
                                                  horizon=6000, paths=paths, seed=2,
                                                  strict=False)).to_json()
            per_path = scalar_kolmogorov_baseline(BaselineConfig(paths=paths, horizon=5000,
                                                                 seed=2)).per_path
            return json.dumps(run, sort_keys=True), per_path

        draws = _patch_tile(monkeypatch, martingales._STREAM_TILE)
        default = outputs()
        # 6 paths walk in one chunk, 64 in 2048-step and 4096 in 32-step ones.
        assert len(_assert_chunks(draws, martingales._STREAM_TILE // paths)) == 2
        draws.clear()
        monkeypatch.setattr(martingales, "_STREAM_TILE", _ODD_CHUNK * paths)
        odd = outputs()
        assert len(_assert_chunks(draws, _ODD_CHUNK)) == 2
        assert default[0] == odd[0]
        np.testing.assert_array_equal(default[1], odd[1])


class TestNormWindows:
    """The normalizers served by window equal the whole-horizon arrays bit for
    bit: at window edges that fall inside chunks and sections, and for a
    chunk taller than a window."""

    @staticmethod
    def whole(v, total):
        """(lil-run's sqrt(s^2) u, the baseline's sqrt(n L(n))) of steps 1..total."""
        ns = np.arange(1, total + 1, dtype=np.float64)
        s2 = v * ns
        return np.sqrt(s2) * np.sqrt(iterlog_seq(s2)), np.sqrt(ns * iterlog_seq(ns))

    @pytest.mark.parametrize("v", [1.0, 0.37, 3.0])
    @pytest.mark.parametrize("window", [1, 7, 1000, lil._NORM_WINDOW])
    def test_pieces_of_a_walk(self, monkeypatch, v, window):
        """The ranges the kernel asks for: 333-step chunks cut at lil-run's
        section ends, then one 20000-step chunk (taller than every window)."""
        monkeypatch.setattr(lil, "_NORM_WINDOW", window)
        total = 30_000
        profile = BracketProfile(v * np.arange(1.0, total + 1))
        ends = [*stopping_indices(profile, 1.5).ks[1:].tolist(), total]
        cuts = sorted(set(range(0, 10_000, _ODD_CHUNK)) | {e for e in ends if e < 10_000}
                      | {10_000, total})
        norm, den = self.whole(v, total)
        for served, whole in ((lil._windowed(LinearBracket(v, total, 1.0).norm_range, total),
                               norm),
                              (lil._windowed(lil._baseline_den, total), den)):
            for a, b in zip(cuts, cuts[1:]):
                np.testing.assert_array_equal(served(a, b), whole[a:b])

    @staticmethod
    def record_windows(monkeypatch):
        """The (first, last) steps of every window the two engines compute."""
        windows = []
        lil_norms, den = LinearBracket.norm_range, lil._baseline_den

        def lil_recording(self, a, b):
            windows.append((a, b))
            return lil_norms(self, a, b)

        def den_recording(a, b):
            windows.append((a, b))
            return den(a, b)

        monkeypatch.setattr(LinearBracket, "norm_range", lil_recording)
        monkeypatch.setattr(lil, "_baseline_den", den_recording)
        return windows

    @pytest.mark.parametrize("v", [1.0, 0.37])
    def test_engines_across_window_edges(self, monkeypatch, v):
        """Windows of 1000 steps against 333-step chunks: both engines match the
        reference walk, which normalizes with whole-horizon arrays."""
        windows = self.record_windows(monkeypatch)
        monkeypatch.setattr(lil, "_NORM_WINDOW", 1000)
        TestWalkRegression.check_report(monkeypatch, "rademacher", v, 64, _ODD_CHUNK, 6000)
        TestWalkRegression.check_baseline(monkeypatch, "rademacher", 64, _ODD_CHUNK, 5000)
        assert len(windows) > 8 and all(b - a <= 1000 for a, b in windows)
        assert any(a % _ODD_CHUNK for a, _ in windows)     # windows start inside chunks

    def test_tall_chunks_widen_the_window(self, monkeypatch):
        """At 2 paths a chunk is 65536 steps, eight default windows: each window
        holds one whole chunk (the baseline's first one starts at step 10^5 / 10)."""
        windows = self.record_windows(monkeypatch)
        rows = martingales._STREAM_TILE // 2
        assert rows > lil._NORM_WINDOW
        TestWalkRegression.check_baseline(monkeypatch, "rademacher", 2, rows, 100_000)
        assert windows == [(10_000, rows), (rows, 100_000)]


class TestStreamingMemory:
    @pytest.mark.parametrize("engine", ["lil-run", "baseline-scalar"])
    def test_traced_peak_flat_in_the_horizon(self, engine):
        """10^5 and 10^6 steps at 64 paths: the traced peaks of the two calls
        lie within one window of normalizers (8 bytes a step) of each other,
        where a whole-horizon float64 array differs by 7.2 MB.  A first call
        leaves lazy set-up out of the traced ones."""
        def run(horizon):
            if engine == "lil-run":
                run_lil_experiment(LILRunConfig(horizon=horizon, paths=64, seed=3))
            else:
                scalar_kolmogorov_baseline(BaselineConfig(horizon=horizon, paths=64, seed=3))

        run(10 ** 5)
        peaks = []
        for horizon in (10 ** 5, 10 ** 6):
            tracemalloc.start()
            try:
                run(horizon)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 8 * lil._NORM_WINDOW, peaks

    def test_huge_checkpoint_count_stays_linear_in_the_walk(self):
        """A checkpoint count above the walk's length is cut to that length, so
        20 million checkpoints of a 2000-step walk form a grid of at most 2000
        floats (about 64 bytes a step here, not 8 per requested checkpoint),
        and the engine's table has at most one column a step."""
        tracemalloc.start()
        try:
            grid = _checkpoint_steps(2000, 20_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2000, peak
        np.testing.assert_array_equal(grid, _checkpoint_steps(2000, 2000))
        report = run_lil_experiment(LILRunConfig(
            params=LILParameters(eps_prime=0.02), horizon=2000, paths=64,
            checkpoints=20_000_000, seed=0, strict=False))
        m = report.checkpoints["m"]
        assert m == _checkpoint_steps(m[-1], m[-1]).tolist() and len(m) <= m[-1]

    def test_traced_peak_below_one_float_checkpoint_table(self):
        """The streaming engine holds no float64 (checkpoints x paths) table.
        tracemalloc counts numpy's allocations, so the peak does not depend on
        the machine; the first run leaves lazy set-up out of the traced one."""
        cfg = LILRunConfig(params=LILParameters(eps_prime=0.02), horizon=20_000, paths=8192,
                           seed=3)
        run_lil_experiment(cfg)
        tracemalloc.start()
        try:
            report = run_lil_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = len(report.checkpoints["m"]) * cfg.paths * 8
        assert peak < table


def _srw_window_exceedance(N, c):
    """P(max over n in (N//10, N] of |S_n|/sqrt(n L(n)) > c) for a simple random
    walk S, by a forward DP over the law of S_n with an absorbing barrier.
    The statistic is formed in the baseline's own floating-point order."""
    lo = N // 10
    ns = np.arange(1, N + 1, dtype=np.float64)
    den = np.sqrt(ns * iterlog_seq(ns))
    absval = np.abs(np.arange(-N, N + 1, dtype=np.float64))
    p = np.zeros(2 * N + 1)
    p[N] = 1.0
    absorbed = 0.0
    for n in range(1, N + 1):
        q = np.zeros_like(p)
        q[1:] = 0.5 * p[:-1]
        q[:-1] += 0.5 * p[1:]
        p = q
        if n > lo:
            out = absval / den[n - 1] > c
            absorbed += float(p[out].sum())
            p[out] = 0.0
    return absorbed


def _srw_window_exceedance_brute(L, c):
    """The same probability by enumerating all 2^L sign sequences."""
    signs = 1 - 2 * ((np.arange(2 ** L)[:, None] >> np.arange(L)) & 1)
    S = np.cumsum(signs, axis=1).astype(np.float64)
    lo = L // 10
    ns = np.arange(lo + 1, L + 1, dtype=np.float64)
    stat = (np.abs(S[:, lo:]) / np.sqrt(ns * iterlog_seq(ns))).max(axis=1)
    return float(np.count_nonzero(stat > c)) / 2 ** L


class TestExactLaw:
    """The iid rademacher walk against its exact law."""

    @pytest.mark.parametrize("L, c", [(12, 1.0), (16, 1.2), (16, 2.0), (14, 1.5)])
    def test_dp_matches_enumeration(self, L, c):
        exact = _srw_window_exceedance(L, c)
        assert 0.0 < exact < 1.0
        assert exact == _srw_window_exceedance_brute(L, c)

    def test_baseline_frac_above_2_on_exact_law(self):
        N, P = 2000, 4096
        exact = _srw_window_exceedance(N, 2.0)
        assert exact == pytest.approx(0.06648, abs=5e-6)
        sd = math.sqrt(exact * (1.0 - exact) / P)
        for seed in range(4):
            rep = scalar_kolmogorov_baseline(BaselineConfig(paths=P, horizon=N, seed=seed))
            assert abs(rep.frac_above_2 - exact) <= 4.0 * sd, (seed, rep.frac_above_2)


class TestBaseline:
    def test_rademacher_small(self):
        cfg = BaselineConfig(paths=128, horizon=5000, seed=4)
        rep = scalar_kolmogorov_baseline(cfg)
        assert 0.3 < rep.median < 2.5
        assert rep.q10 <= rep.median <= rep.q90 <= rep.q99
        assert rep.window == (501, 5000)

    def test_validation(self):
        with pytest.raises(ConfigError):
            BaselineConfig(paths=0)
        for law in ("gaussian", "alternating"):
            with pytest.raises(ConfigError):
                BaselineConfig(law=law)


class TestSemicircle:
    def test_cdf_shape(self):
        assert semicircle_cdf(-2.0) == 0.0
        assert semicircle_cdf(2.0) == pytest.approx(1.0)
        assert semicircle_cdf(0.0) == pytest.approx(0.5)
        xs = np.linspace(-2.2, 2.2, 101)
        assert np.all(np.diff(semicircle_cdf(xs)) >= 0)

    def test_ks_distance_self(self):
        # the empirical cdf of exact quantiles is within 1/n of the law
        qs = (np.arange(1, 201) - 0.5) / 200.0
        xs = np.linspace(-2, 2, 400001)
        cdf = semicircle_cdf(xs)
        vals = np.interp(qs, cdf, xs)
        assert ks_distance(vals, semicircle_cdf) <= 1.0 / 200 + 1e-3

    def test_demo_trend(self):
        cfg = SemicircleConfig(size=60, checkpoints=(20, 400), seed=2)
        rep = semicircular_demo(cfg)
        assert rep.trend_ok
        assert rep.rows[0]["n"] == 20 and rep.rows[-1]["n"] == 400
        assert rep.ks_first < 0.25

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SemicircleConfig(size=10)
        for checkpoints in ((100, 50), (0, 50), ()):
            with pytest.raises(ConfigError):
                SemicircleConfig(checkpoints=checkpoints)
