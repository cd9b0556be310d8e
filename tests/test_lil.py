"""Block decomposition engines, almost-uniform limsup, calibration runs."""

import json
import math

import numpy as np
import pytest

from blas_pin import blas_threads, caller_blas_threads
from nclil import (AlgebraModel, BaselineConfig, ConfigError,
                   InsufficientHorizonError, LILParameters, LILRunConfig,
                   Projection, SemicircleConfig, ks_distance,
                   run_lil_experiment, scalar_kolmogorov_baseline,
                   semicircle_cdf, semicircular_demo)
from nclil.lil import (_BC_TOLERANCES, _bc_checks, _block_report,
                       _checkpoint_steps, _max_normalized, _Realization, _walk)
from nclil import lil
from nclil.cli import main
from nclil.martingales import iterlog_seq
from nclil.operators import _openblas
from nclil.rng import stream_rng


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
            LILRunConfig(paths=63)
        with pytest.raises(ConfigError):
            LILRunConfig(checkpoints=1)
        with pytest.raises(ConfigError):
            LILRunConfig(variance=0.0)

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
            return _bc_checks(deficit, 0.3, limsup, 2.2, 5.0, _BC_TOLERANCES[engine])

        assert bc(deficit=union_edge)["union_bound_ok"]
        assert not bc(deficit=np.nextafter(union_edge, np.inf))["union_bound_ok"]
        assert bc(limsup=limsup_edge)["limsup_below_threshold_ok"]
        past = bc(limsup=np.nextafter(limsup_edge, np.inf))
        assert not past["limsup_below_threshold_ok"] and not past["ok"]
        assert bc(limsup=math.nan)["ok"]

    def test_walk_carries_partial_sums_across_chunks(self, monkeypatch):
        incs = np.random.default_rng(0).standard_normal((23, 4))
        # Exact in the documented order: cumsum within the chunk, then the carry.
        expected, carry = [], 0.0
        for pos in range(0, 23, 5):
            part = np.cumsum(incs[pos:pos + 5], axis=0) + carry
            carry = part[-1]
            expected.append(part)

        def draw(pos, take, out):
            out[:] = incs[pos:pos + take]
            return out

        # The walk reuses one buffer, so each chunk is copied as it comes.
        monkeypatch.setattr(lil, "_STREAM_TILE", 5 * 4)                  # 5 steps
        chunks = [(pos, C.copy()) for pos, C in _walk(draw, 4, 23)]
        assert [pos for pos, _ in chunks] == [0, 5, 10, 15, 20]
        assert [len(C) for _, C in chunks] == [5, 5, 5, 5, 3]
        walked = np.concatenate([C for _, C in chunks], axis=0)
        np.testing.assert_array_equal(walked, np.concatenate(expected, axis=0))
        np.testing.assert_allclose(walked, np.cumsum(incs, axis=0), rtol=1e-12)

    def test_walk_hands_out_one_buffer(self, monkeypatch):
        seen = []

        def draw(pos, take, out):
            seen.append(out)
            out[:] = 1.0
            return out

        monkeypatch.setattr(lil, "_STREAM_TILE", 4 * 2)                  # chunks of 4 steps
        sums = [C[-1, 0] for _, C in _walk(draw, 2, 10)]
        assert sums == [4.0, 8.0, 10.0]
        assert all(np.shares_memory(seen[0], o) for o in seen[1:])

    @pytest.mark.parametrize("paths, total, rows", [
        (6, 100, 16), (6, 10, 10), (100, 50, 1), (150, 50, 1)])
    def test_walk_buffer_stays_within_the_cap(self, monkeypatch, paths, total, rows):
        cap = 100
        monkeypatch.setattr(lil, "_STREAM_TILE", cap)
        buffers = []

        def draw(pos, take, out):
            buffers.append(out.base)
            out[:] = 1.0
            return out

        for _ in _walk(draw, paths, total):
            pass
        assert {b.shape for b in buffers} == {(rows, paths)}
        assert buffers[0].size <= max(cap, paths)


def _paths_major_walk(rng, law, scale, paths, total, chunk):
    """The paths-major walk the steps-major one replaced, kept as a reference:
    fresh chunked iid draws, transpose, cumsum along the steps, then the carry.
    A rademacher step takes its signs from the low bits of ceil(paths / 64)
    whole 64-bit words, a uniform one maps one double per path onto [-b, b)."""
    S = np.zeros(paths)
    pos = 0
    while pos < total:
        take = min(chunk, total - pos)
        if law == "rademacher":
            words = rng.integers(0, np.iinfo(np.uint64).max, size=(take, -(-paths // 64)),
                                 dtype=np.uint64, endpoint=True)
            bits = np.unpackbits(words.view(np.uint8), axis=1, count=paths, bitorder="little")
            block = np.where(bits == 1, scale, -scale)
        else:
            block = rng.random((take, paths)) * (2.0 * scale) - scale
        C = np.ascontiguousarray(block.T)
        np.cumsum(C, axis=1, out=C)
        C += S[:, None]
        S = C[:, -1].copy()
        yield C
        pos += take


def _reference_stream_report(cfg, chunk):
    """The streaming engine's report, realized from the reference walk."""
    pars, N, P = cfg.params, cfg.horizon, cfg.paths
    scale = math.sqrt(cfg.variance / (1.0 if cfg.law == "rademacher" else 1.0 / 3.0))
    s2 = cfg.variance * np.arange(1, N + 1, dtype=np.float64)
    u = np.sqrt(iterlog_seq(s2))
    norm = np.sqrt(s2) * u

    def realize(rule, used):
        ks, B = rule.ks, rule.blocks
        total = int(ks[-1])
        rng = stream_rng(cfg.seed, label=f"lil-stream-{cfg.law}")
        absS = np.abs(np.concatenate(
            list(_paths_major_walk(rng, cfg.law, scale, P, total, chunk)), axis=1))
        R = absS / norm[None, :total]
        sections = range(len(ks) - 1)
        blockmax = np.array([R[:, ks[i]:ks[i + 1]].max(axis=1, initial=-np.inf)
                             for i in sections])
        snapshots = np.array([absS[:, :ks[i + 1]].max(axis=1, initial=0.0) for i in sections])
        cp_steps = _checkpoint_steps(total, cfg.checkpoints)
        cp_rows = R[:, cp_steps - 1].T
        exceed = blockmax[1:B + 1] > pars.threshold
        exceed_theory = snapshots[1:B + 1] > (pars.beta * (1.0 + pars.delta)
                                              * norm[ks[2:] - 1])[:, None]
        used_ix = np.asarray(used)
        kept = ~exceed[used_ix - 1].any(axis=0)
        kept_rows = cp_rows[:, kept]
        return _Realization(
            semantics="empirical", q_block=exceed.mean(axis=1),
            q_theory=exceed_theory.mean(axis=1),
            e=Projection(kept.astype(np.float64), diagonal=True), deficit=float((~kept).mean()),
            levels=s2[ks[used_ix + 1] - 1],
            kept_sup=blockmax[used_ix][:, kept].max(axis=1, initial=-np.inf),
            cp_steps=cp_steps, cp_stats={"r_max_all": cp_rows.max(axis=1).tolist(),
                                         "r_max_kept": kept_rows.max(axis=1).tolist(),
                                         "r_mean_kept": kept_rows.mean(axis=1).tolist()})

    report = _block_report("streaming-ensemble", cfg, s2, u, np.broadcast_to(scale, (N,)),
                           realize, horizon=N, law=cfg.law, carrier=f"paths={P}",
                           knob="the variance")
    report.blas_threads = 1 if _openblas() else None      # the runner's stamp
    return report


_ODD_CHUNK = 333       # rows per walk chunk under a patched streaming tile


def _patch_tile(monkeypatch, tile):
    """Set the streaming engines' walk tile to ``tile`` floats and return the
    list that collects the (pos, take) of every draw they make from then on."""
    monkeypatch.setattr(lil, "_STREAM_TILE", tile)
    draws = []
    iid_draw = lil._iid_draw

    def recording(*args):
        draw = iid_draw(*args)

        def counted(pos, take, out):
            draws.append((pos, take))
            return draw(pos, take, out)
        return counted

    monkeypatch.setattr(lil, "_iid_draw", recording)
    return draws


def _assert_chunks(draws, rows):
    """In every walk recorded (each starts at pos 0), each draw but the last
    took ``rows`` steps and the last at most that.  Returns the walks' draw counts."""
    starts = [i for i, (pos, _) in enumerate(draws) if pos == 0]
    assert starts and starts[0] == 0
    counts = []
    for a, b in zip(starts, starts[1:] + [len(draws)]):
        takes = [take for _, take in draws[a:b]]
        assert set(takes[:-1]) <= {rows} and 1 <= takes[-1] <= rows
        counts.append(len(takes))
    return counts


class TestMaxNormalized:
    """The consumers' screened divide against a full divide-then-max, bit for bit."""

    @staticmethod
    def run(rows, den, best):
        """(flagged, best after, rows after) of the helper, checked against the
        reference on copies."""
        expected = np.maximum(best, (rows / den[:, None]).max(axis=0))
        rows, best = rows.copy(), best.copy()
        flagged = _max_normalized(rows, rows.max(axis=0), den, best)
        np.testing.assert_array_equal(best, expected)
        return flagged, best, rows

    @staticmethod
    def block(seed, steps=7, paths=64):
        """|S| of a short rademacher stretch and its sqrt(n L(n)) normalizers."""
        rng = np.random.default_rng(seed)
        rows = np.abs(rng.integers(-40, 41, size=(steps, paths))).astype(np.float64)
        ns = np.arange(300, 300 + steps, dtype=np.float64)
        return rows, np.sqrt(ns * iterlog_seq(ns))

    def test_minus_inf_start_divides_in_place(self):
        rows, den = self.block(1)
        flagged, _, after = self.run(rows, den, np.full(rows.shape[1], -np.inf))
        assert flagged == rows.shape[1]
        np.testing.assert_array_equal(after, rows / den[:, None])

    def test_none_flagged_leaves_everything(self):
        rows, den = self.block(2)
        best = np.full(rows.shape[1], 10.0)
        flagged, got, after = self.run(rows, den, best)
        assert flagged == 0
        np.testing.assert_array_equal(got, best)
        np.testing.assert_array_equal(after, rows)

    def test_tie_is_not_flagged(self):
        rows, den = self.block(3)
        best = rows.max(axis=0) / den.min()         # the bound itself, exactly
        flagged, got, _ = self.run(rows, den, best)
        assert flagged == 0
        np.testing.assert_array_equal(got, best)
        nudged = best.copy()
        nudged[5] = np.nextafter(best[5], -np.inf)   # one ulp below: flagged alone
        assert self.run(rows, den, nudged)[0] == 1

    def test_all_flagged(self):
        rows, den = self.block(4)
        rows += 1.0                                  # every column above zero
        flagged, _, after = self.run(rows, den, np.zeros(rows.shape[1]))
        assert flagged == rows.shape[1]
        np.testing.assert_array_equal(after, rows / den[:, None])

    def test_non_monotone_normalizer(self):
        # the largest quotient sits at the smallest normalizer, in the middle
        den = np.array([3.0, 2.5, 1.0, 2.0, 3.5])
        rows = np.full((5, 8), 0.9)
        rows[2, 3] = 2.5
        flagged, got, after = self.run(rows, den, np.ones(8))
        assert flagged == 1
        assert got[3] == 2.5 and np.all(np.delete(got, 3) == 1.0)
        np.testing.assert_array_equal(after, rows)         # gathered, not divided

    @pytest.mark.parametrize("seed", range(6))
    def test_both_branches(self, seed):
        """A best drawn around the block's own quotients flags a few columns
        (gathered) or many (divided in place)."""
        rows, den = self.block(seed, steps=11, paths=200)
        full = (rows / den[:, None]).max(axis=0)
        rng = np.random.default_rng(seed)
        for share, gathered in ((0.1, True), (0.6, False)):
            best = full * rng.uniform(1.0, 1.2, size=full.size)
            best[rng.random(full.size) < share] *= 0.8
            flagged, _, after = self.run(rows, den, best)
            assert 0 < flagged
            assert (4 * flagged <= full.size) == gathered
            assert np.array_equal(after, rows) == gathered


class TestWalkRegression:
    """Bit-identity of the steps-major walk and its consumers with the
    paths-major reference, at an odd chunk size and a non-unit variance."""

    @pytest.mark.parametrize("paths", [64, 512])
    @pytest.mark.parametrize("law", ["rademacher", "uniform"])
    def test_streaming_report_matches_reference(self, monkeypatch, law, paths):
        draws = _patch_tile(monkeypatch, _ODD_CHUNK * paths)
        cfg = LILRunConfig(params=LILParameters(eps_prime=0.02), horizon=6000, paths=paths,
                           law=law, variance=0.37, seed=4, strict=False)
        got, ref = run_lil_experiment(cfg), _reference_stream_report(cfg, _ODD_CHUNK)
        (count,) = _assert_chunks(draws, _ODD_CHUNK)       # one walk, several chunks
        assert count > 2
        assert ref.deficit > 0.0          # some paths exceed, so e is not trivial
        assert json.dumps(got.to_json(), sort_keys=True) == \
               json.dumps(ref.to_json(), sort_keys=True)
        assert got.checkpoints == ref.checkpoints
        np.testing.assert_array_equal(got.e.diag_array(), ref.e.diag_array())

    @pytest.mark.parametrize("paths", [64, 512])
    @pytest.mark.parametrize("law", ["rademacher", "uniform"])
    def test_baseline_per_path_matches_reference(self, monkeypatch, law, paths):
        draws = _patch_tile(monkeypatch, _ODD_CHUNK * paths)
        cfg = BaselineConfig(paths=paths, horizon=5000, law=law, seed=6)
        rng = stream_rng(cfg.seed, label=f"baseline-{law}")
        scale = 1.0 if law == "rademacher" else math.sqrt(3.0)
        S = np.concatenate(list(_paths_major_walk(rng, law, scale, cfg.paths, cfg.horizon,
                                                  _ODD_CHUNK)), axis=1)
        lo = cfg.horizon // 10
        ns = np.arange(lo + 1, cfg.horizon + 1, dtype=np.float64)
        expected = (np.abs(S[:, lo:]) / np.sqrt(ns * iterlog_seq(ns))).max(axis=1, initial=0.0)
        np.testing.assert_array_equal(scalar_kolmogorov_baseline(cfg).per_path, expected)
        assert _assert_chunks(draws, _ODD_CHUNK) == [-(-cfg.horizon // _ODD_CHUNK)]


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

        draws = _patch_tile(monkeypatch, lil._STREAM_TILE)
        default = outputs()
        # 6 paths walk in one chunk, 64 in 2048-step and 4096 in 32-step ones.
        assert len(_assert_chunks(draws, lil._STREAM_TILE // paths)) == 2
        draws.clear()
        monkeypatch.setattr(lil, "_STREAM_TILE", _ODD_CHUNK * paths)
        odd = outputs()
        assert len(_assert_chunks(draws, _ODD_CHUNK)) == 2
        assert default[0] == odd[0]
        np.testing.assert_array_equal(default[1], odd[1])


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
            BaselineConfig(paths=3)
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
