"""Martingale generators, bracket profiles, stopping rule."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclil import (AlgebraModel, ConfigError, NclilError, Operator, ShapeError,
                   conditional_expectation, gen_diagonal_martingale,
                   gen_model_martingale, gen_tensor_martingale, gue_matrix,
                   iterlog, iterlog_seq, lp_norm, normalized_trace,
                   sample_step_increments, stopping_indices, stream_rng,
                   symmetrize)
from nclil import martingales
from nclil.martingales import BracketProfile
from step_atoms import ATOM_MAX, RATIO, reference_atoms, reference_unit

E_E = math.exp(math.e)


def _differences(path):
    """d_k = x_k - x_{k-1} of a dense path, from its partial sums."""
    xs = [path.partial(n) for n in range(1, path.horizon + 1)]
    return xs[:1] + [b - a for a, b in zip(xs, xs[1:])]


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
        """gen_diagonal_martingale mirrors its paths: each step's pair (d, -d)
        cancels exactly, so every mirrored row of steps and the realized trace
        of the final values are exactly 0, and the final values are the exact
        sums of the atoms, scaled once by the unit."""
        paths, half, horizon, variance = 512, 256, 600, 0.37
        path = gen_diagonal_martingale(horizon, paths=paths, law=law, variance=variance,
                                       seed=9)
        final = path.final.data
        np.testing.assert_array_equal(final[half:], -final[:half])
        assert np.all(final[:half] + final[half:] == 0.0)
        assert normalized_trace(path.final) == 0.0
        assert path.md_residual == 0.0
        # the same steps, drawn in one block: the draws do not depend on the chunk
        bound, unit = martingales._step_bound(law, variance)
        head = sample_step_increments(stream_rng(9, label=f"diag-mart-{law}"), law,
                                      np.empty((horizon, half), dtype=np.int32))
        rows = np.concatenate([head, -head], axis=1)
        assert np.max(np.abs(rows)) <= ATOM_MAX[law]
        assert np.all(rows.sum(axis=1) == 0)
        np.testing.assert_array_equal(rows.sum(axis=0, dtype=np.int64) * unit, final)
        assert np.max(np.abs(final)) <= horizon * bound

    def test_out_dtype_checked(self):
        """Only a signed integer block that holds ±atom_max takes a draw."""
        for law, dtype in (("rademacher", np.uint8), ("rademacher", np.float64),
                           ("rademacher", np.float32), ("uniform", np.int16),
                           ("uniform", np.uint32), ("uniform", np.float64)):
            with pytest.raises(ShapeError):
                sample_step_increments(stream_rng(0), law, np.empty((3, 8), dtype=dtype))

    @pytest.mark.parametrize("law, dtype", [
        ("rademacher", np.int8), ("rademacher", np.int16), ("rademacher", np.int32),
        ("uniform", np.int32), ("uniform", np.int64)])
    def test_draw_writes_out_in_any_dtype(self, law, dtype):
        """The draw fills ``out`` in place and returns it; the atoms and the
        raw words taken do not depend on its dtype."""
        rng, ref = stream_rng(6), stream_rng(6)
        out = np.empty((40, 70), dtype=dtype)
        assert sample_step_increments(rng, law, out) is out
        np.testing.assert_array_equal(out, reference_atoms(ref, law, 40, 70))
        assert rng.random() == ref.random()

    def test_rademacher_values(self):
        block = sample_step_increments(stream_rng(3), "rademacher", np.empty((5, 8), np.int8))
        assert set(np.unique(block)) == {-1, 1}

    def test_odd_paths_rejected(self):
        """Only the mirrored ensemble splits the paths half and half."""
        for paths in (7, 0):
            with pytest.raises(ConfigError):
                gen_diagonal_martingale(10, paths=paths)
        assert sample_step_increments(stream_rng(0), "rademacher",
                                      np.empty((1, 7), np.int8)).shape == (1, 7)

    @pytest.mark.parametrize("paths", [6, 70])
    def test_iid_rademacher_values(self, paths):
        block = sample_step_increments(stream_rng(3), "rademacher",
                                       np.empty((400, paths), np.int8))
        assert set(np.unique(block)) == {-1, 1}
        assert np.any(block.sum(axis=1) != 0)         # steps are not balanced

    @pytest.mark.parametrize("variance", [1.0, 0.37, 3.0])
    def test_iid_rademacher_exact_scale(self, variance):
        """Each atom is +1 for a set bit and -1 for a clear one; the unit that
        scales them is sqrt(variance), exactly the step bound."""
        paths, steps = 70, 300
        block = sample_step_increments(stream_rng(4), "rademacher",
                                       np.empty((steps, paths), np.int8))
        np.testing.assert_array_equal(block, reference_atoms(stream_rng(4), "rademacher",
                                                             steps, paths))
        assert martingales._step_bound("rademacher", variance) == \
            (math.sqrt(variance), math.sqrt(variance))

    @pytest.mark.parametrize("paths", [1, 2, 63, 64, 65, 4094])
    @pytest.mark.parametrize("steps", [1, 5])
    def test_sign_table_matches_unpackbits(self, paths, steps):
        """The byte-table signs equal the unpacked bits of full-range words,
        and each draw consumes the same number of raw words; at 64 paths an
        int8 ``out`` is filled by the lookup itself."""
        for seed, dtype in enumerate((np.int8, np.int16, np.int32)):
            rng, ref = stream_rng(seed, label="signs"), stream_rng(seed, label="signs")
            got = sample_step_increments(rng, "rademacher", np.empty((steps, paths), dtype=dtype))
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, reference_atoms(ref, "rademacher", steps, paths))
            np.testing.assert_array_equal(rng.bit_generator.random_raw(3),
                                          ref.bit_generator.random_raw(3))

    @pytest.mark.parametrize("paths", [1, 3, 4, 5, 70, 4097])
    @pytest.mark.parametrize("steps", [1, 5])
    def test_uniform_lanes_match_shifts(self, paths, steps):
        """Uniform atoms are 2u - 65535 of the 16-bit lanes u of full-range
        words, lowest lane first, split here by shifts; each step takes
        ceil(paths / 4) whole words."""
        for seed, dtype in enumerate((np.int32, np.int64)):
            rng, ref = stream_rng(seed, label="lanes"), stream_rng(seed, label="lanes")
            got = sample_step_increments(rng, "uniform", np.empty((steps, paths), dtype=dtype))
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, reference_atoms(ref, "uniform", steps, paths))
            np.testing.assert_array_equal(rng.bit_generator.random_raw(3),
                                          ref.bit_generator.random_raw(3))

    def test_iid_uniform_atoms(self):
        block = sample_step_increments(stream_rng(3), "uniform", np.empty((400, 70), np.int32))
        assert np.max(np.abs(block)) <= 65535 and np.all(block % 2 == 1)
        assert block.min() < -65000 and block.max() > 65000

    @pytest.mark.parametrize("law", ["rademacher", "uniform"])
    def test_iid_out_buffer_matches_whole_draw(self, law):
        """Step k's draws do not depend on how the steps are split into blocks
        of one buffer."""
        buf = np.full((50, 70), 7, dtype=np.int32)
        rng_out, rng_whole = stream_rng(5), stream_rng(5)
        split = []
        for steps in (37, 11):
            got = sample_step_increments(rng_out, law, buf[:steps])
            assert np.shares_memory(got, buf)
            split.append(got.copy())
        whole = sample_step_increments(rng_whole, law, np.empty((48, 70), np.int32))
        np.testing.assert_array_equal(np.concatenate(split), whole)
        assert rng_out.random() == rng_whole.random()

    @pytest.mark.parametrize("law, paths, total, tile, rows, dtype", [
        ("rademacher", 4096, 100, 1 << 17, 32, np.int8),
        ("rademacher", 6, 100, 100, 16, np.int8),
        ("rademacher", 6, 10, 100, 10, np.int8),
        ("rademacher", 100, 50, 100, 1, np.int8),
        ("rademacher", 150, 50, 100, 1, np.int8),
        ("rademacher", 2, 300, 2 * 128, 128, np.int16),
        ("uniform", 5, 40, 5 * 7, 7, np.int32)])
    def test_atom_chunks_own_one_buffer(self, monkeypatch, law, paths, total, tile, rows,
                                        dtype):
        """The chunker's blocks are views of one buffer of tile // paths steps
        (at least one, at most the walk), of the narrowest type that holds a
        chunk's sums; together they are the draw of the whole walk at once."""
        monkeypatch.setattr(martingales, "_STREAM_TILE", tile)
        chunks, steps = [], []
        for pos, block in martingales._atom_chunks(stream_rng(2), law, paths, total):
            chunks.append((pos, block))
            steps.append(block.copy())
        assert [pos for pos, _ in chunks] == list(range(0, total, rows))
        assert all(np.shares_memory(b, chunks[0][1]) for _, b in chunks)
        assert {b.dtype for _, b in chunks} == {np.dtype(dtype)}
        assert chunks[0][1].base.shape == (rows, paths)
        assert chunks[0][1].base.size <= max(tile, paths)
        np.testing.assert_array_equal(np.concatenate(steps),
                                      reference_atoms(stream_rng(2), law, total, paths))

    def test_step_laws(self):
        """Each law's ratio is Var(k) / atom_max^2 of its enumerated atoms,
        correctly rounded, and its unit scales the largest atom to the bound."""
        laws = {"rademacher": range(-1, 2, 2), "uniform": range(-65535, 65536, 2)}
        assert set(martingales._STEP_LAWS) == set(laws) and len(laws["uniform"]) == 2 ** 16
        for law, atoms in laws.items():
            var = sum(Fraction(k * k) for k in atoms) / len(atoms)
            assert sum(atoms) == 0
            assert martingales._STEP_LAWS[law] == (float(var / atoms[-1] ** 2), atoms[-1])
            assert martingales._STEP_LAWS[law] == (RATIO[law], ATOM_MAX[law])
        assert RATIO["uniform"] == float(Fraction(2 ** 16 + 1, 3 * (2 ** 16 - 1)))
        for law in ("gaussian", "alternating"):
            with pytest.raises(ConfigError):
                martingales._step_bound(law, 1.0)
            with pytest.raises(ConfigError):
                gen_diagonal_martingale(horizon=10, paths=8, law=law)

    @pytest.mark.parametrize("law", ["rademacher", "uniform"])
    @pytest.mark.parametrize("variance", [1.0, 0.37, 2.0, 3.0, 0.81, 1e-6, 7.5e4])
    def test_bound_covers_the_largest_increment(self, law, variance):
        """The reported dnorm is at least unit * atom_max in floating point, and
        bound and unit are those of the reference formula."""
        bound, unit = martingales._step_bound(law, variance)
        assert (bound, unit) == reference_unit(law, variance)
        path = gen_diagonal_martingale(horizon=5, paths=8, law=law, variance=variance)
        assert np.all(path.dnorm >= unit * ATOM_MAX[law])

    def test_overflowing_bound_rejected(self):
        """1e308 / (1/3) is no float: the uniform bound overflows, the
        rademacher one does not."""
        assert martingales._step_bound("rademacher", 1e308)[0] == math.sqrt(1e308)
        with pytest.raises(ConfigError, match="its bound finite"):
            martingales._step_bound("uniform", 1e308)


class TestStoppingRule:
    def test_postconditions(self):
        rng = stream_rng(12)
        s2 = np.cumsum(rng.uniform(0.1, 2.0, size=400))
        eta = 1.3
        rule = stopping_indices(BracketProfile(s2), eta)
        assert rule.ks[0] == 0
        for n in range(1, len(rule.ks)):
            k = int(rule.ks[n])
            thr = eta ** (2 * n)
            assert s2[k] >= thr            # s2[k] is s^2_{k+1}
            if k > 0:
                assert s2[k - 1] < thr     # s^2_{k_n} < eta^(2n)

    def test_block_ranges_partition(self):
        s2 = np.arange(1.0, 2001.0)
        rule = stopping_indices(BracketProfile(s2), 1.5)
        steps = []
        for n in range(1, rule.blocks + 1):
            steps.extend(rule.block_steps(n))
        assert steps == list(range(int(rule.ks[1]) + 1, int(rule.ks[-1]) + 1))

    def test_eta_domain(self):
        for eta in (1.0, 2.0, 0.5):
            with pytest.raises(ConfigError):
                stopping_indices(BracketProfile(np.arange(1.0, 10.0)), eta)

    @given(seed=st.integers(0, 2**31), eta=st.floats(1.05, 1.95))
    @settings(max_examples=30, deadline=None)
    def test_monotone_thresholds(self, seed, eta):
        r = np.random.default_rng(seed)
        s2 = np.cumsum(r.uniform(0.01, 1.0, size=300))
        ks = stopping_indices(BracketProfile(s2), eta).ks
        assert np.all(np.diff(ks) >= 0)


class TestLinearBracket:
    """The streaming engines' closed-form bracket s^2_n = v n against the
    materialized arrays it replaced, bit for bit."""

    VARIANCES = (1.0, 0.37, 3.0, 1.0 / 3.0)

    @pytest.mark.parametrize("horizon", [1000, 1024, 1_000_000])
    @pytest.mark.parametrize("eta", [1.1, 1.2, math.sqrt(2.0), 1.5, 1.9])
    @pytest.mark.parametrize("v", VARIANCES)
    def test_stopping_times_equal_searchsorted(self, v, eta, horizon):
        """At eta = sqrt(2) and v = 1 the thresholds eta^(2n) sit one ulp
        above the steps 2^n, and 1024 is the last of them."""
        s2 = v * np.arange(1, horizon + 1, dtype=np.float64)
        got = stopping_indices(martingales.LinearBracket(v, horizon, 1.0), eta).ks
        np.testing.assert_array_equal(got, stopping_indices(BracketProfile(s2), eta).ks)

    def test_thresholds_on_a_step(self):
        """eta = 1.25 at v = 2^-8: eta^2 = 400 v and eta^4 = 625 v exactly, so
        k_1 = 399 and k_2 = 624 (the step that reaches a level is not below it)."""
        v, horizon = 2.0 ** -8, 5000
        assert 1.25 ** 2.0 == 400 * v and 1.25 ** 4.0 == 625 * v
        ks = stopping_indices(martingales.LinearBracket(v, horizon, 1.0), 1.25).ks
        assert ks[1:3].tolist() == [399, 624]
        np.testing.assert_array_equal(
            ks, stopping_indices(BracketProfile(v * np.arange(1, horizon + 1, dtype=np.float64)),
                                 1.25).ks)

    @pytest.mark.parametrize("v", VARIANCES + (2.0 ** -8,))
    def test_count_below_on_and_beside_steps(self, v):
        """Levels equal to a step's s^2, one ulp either side of it, below the
        first step and beyond the last.  At v = 0.37, ceil(level / v) misses
        the step by one for the level on step 11 or 22 and one ulp above
        step 21 or 33, so both corrections run."""
        horizon = 5000
        profile = martingales.LinearBracket(v, horizon, 1.0)
        s2 = v * np.arange(1, horizon + 1, dtype=np.float64)
        on = profile.s2(np.array([1, 2, 3, 11, 21, 22, 33, 399, 400, 625, 4096, horizon]))
        levels = np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
                                 [0.5 * v, 7.0 * v * horizon]])
        np.testing.assert_array_equal(profile.count_below(levels),
                                      np.searchsorted(s2, levels, side="left"))

    def test_count_below_at_the_longest_horizon(self):
        """The streaming engines refuse a horizon of 2^53 or more, so horizon + 1
        is exact in float64 and the search starts on a step: no invalid cast."""
        profile = martingales.LinearBracket(1.0, 2 ** 53 - 1, 1.0)
        with np.errstate(all="raise"):
            got = profile.count_below([1e19, 2.0 ** 53 - 1, 3.0])
        assert got.tolist() == [2 ** 53 - 1, 2 ** 53 - 2, 2]

    @pytest.mark.parametrize("v", VARIANCES)
    def test_values_equal_the_whole_horizon_arrays(self, v):
        horizon = 200_000
        s2 = v * np.arange(1, horizon + 1, dtype=np.float64)
        u = np.sqrt(iterlog_seq(s2))
        norm = np.sqrt(s2) * u
        profile = martingales.LinearBracket(v, horizon, 0.5)
        steps = np.array([1, 2, 16, 17, 33, 1000, 65536, 123457, horizon])
        np.testing.assert_array_equal(profile.s2(steps), s2[steps - 1])
        np.testing.assert_array_equal(profile.u(steps), u[steps - 1])
        np.testing.assert_array_equal(profile.norm(steps), norm[steps - 1])
        np.testing.assert_array_equal(profile.dnorm(steps), np.full(len(steps), 0.5))
        for a, b in ((0, 33), (33, 8225), (123_456, horizon)):      # unaligned ranges
            np.testing.assert_array_equal(profile.norm_range(a, b), norm[a:b])


class TestGenerators:
    def test_tensor_martingale_property(self):
        model = AlgebraModel("tensor", 2, 6)
        path = gen_tensor_martingale(model, seed=2)
        assert path.horizon == 6
        assert path.md_residual < 1e-9
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
            assert path.md_residual < 1e-9
            assert np.all(np.diff(path.s2) >= -1e-12)
            np.testing.assert_allclose(path.dnorm, 1.0, rtol=1e-9)

    def test_dense_path_equals_a_reference_loop(self):
        """Bracket, bounds, residual and partial sums of a centered pinching:2:4
        sequence, against conditional_expectation and lp_norm called directly."""
        model = AlgebraModel("pinching", 2, 4)
        diffs = _differences(gen_model_martingale(model, seed=8))
        path = martingales._assemble_dense_path(model, diffs, {})
        incs = [conditional_expectation(model, symmetrize(d.adjoint() @ d), i)
                for i, d in enumerate(diffs)]
        s2 = [lp_norm(sum(incs[:n]), np.inf) for n in range(1, len(diffs) + 1)]
        np.testing.assert_array_equal(path.s2, s2)
        np.testing.assert_array_equal(path.u, np.sqrt(iterlog_seq(s2)))
        np.testing.assert_array_equal(path.dnorm, [lp_norm(d, np.inf) for d in diffs])
        assert path.md_residual == max(lp_norm(conditional_expectation(model, d, i), np.inf)
                                       for i, d in enumerate(diffs))
        for n in range(1, len(diffs) + 1):
            np.testing.assert_array_equal(path.partial(n).data, sum(diffs[:n]).data)

    def test_dense_path_rejects_a_non_centered_difference(self):
        model = AlgebraModel("pinching", 2, 4)
        diffs = _differences(gen_model_martingale(model, seed=8))
        diffs[2] = diffs[2] + Operator(np.full(model.dim, 1e-6), hermitian=True)
        with pytest.raises(NclilError, match="fail the martingale property"):
            martingales._assemble_dense_path(model, diffs, {})

    def test_diagonal_martingale_exact_bracket(self):
        path = gen_diagonal_martingale(horizon=500, paths=64, law="uniform",
                                       variance=2.0, seed=5)
        np.testing.assert_allclose(path.s2, 2.0 * np.arange(1, 501), rtol=1e-12)
        assert path.md_residual < 1e-12

    def test_diagonal_martingale_rejects_nonpositive_variance(self):
        """An infinite variance used to pass the generator's own check."""
        for law in ("rademacher", "uniform"):
            for variance in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ConfigError, match="variance must be finite and > 0"):
                    martingales._step_bound(law, variance)
                with pytest.raises(ConfigError, match="variance must be finite and > 0"):
                    gen_diagonal_martingale(horizon=5, paths=8, law=law, variance=variance)

    def test_gue_bits_of_the_complex_expression(self):
        ref, r = stream_rng(17), stream_rng(17)
        g = ref.standard_normal((30, 30)) + 1j * ref.standard_normal((30, 30))
        assert gue_matrix(r, 30).tobytes() == ((g + g.conj().T) / math.sqrt(120.0)).tobytes()

    def test_gue_normalization(self):
        rng = stream_rng(17)
        h = gue_matrix(rng, 300)
        tau_h2 = float(np.trace(h @ h).real) / 300
        assert abs(tau_h2 - 1.0) < 0.15
        ev = np.linalg.eigvalsh(h)
        assert ev.min() > -2.5 and ev.max() < 2.5


class TestDenseMemory:
    @pytest.mark.parametrize("gen", [gen_model_martingale, gen_tensor_martingale])
    def test_traced_peak_of_generation(self, gen):
        """At tensor:2:8 the level-8 blocks are 256 x 256 complex, 1 MiB each,
        and the path holds 1.34 MiB of partial sums.  Each block is formed
        once, so a call peaks below 6 MiB (8.84 and 7.09 MiB when every block
        was copied 3-5 times).  tracemalloc counts numpy's allocations, so the
        peak does not depend on the machine; the first call leaves lazy
        set-up out of the traced one."""
        model = AlgebraModel("tensor", 2, 8)
        gen(model)
        tracemalloc.start()
        try:
            gen(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


def _hand_loop_diagonal(horizon, paths, law, variance, seed, tile):
    """gen_diagonal_martingale as a reference loop: reference atoms on the first
    half of the paths in chunks of tile // half steps, each chunk's rows added
    one by one into an integer head, the head scaled by the unit, and the
    tail its mirror image.  Returns (final values, step bound)."""
    half = paths // 2
    bound, unit = reference_unit(law, variance)
    rng = stream_rng(seed, label=f"diag-mart-{law}")
    chunk = max(1, min(horizon, tile // half))
    head = np.zeros(half, dtype=np.int64)
    for pos in range(0, horizon, chunk):
        for row in reference_atoms(rng, law, min(chunk, horizon - pos), half):
            head += row
    head = head * unit
    return np.concatenate([head, -head]), bound


def _record_draws(monkeypatch):
    """Steps of every draw gen_diagonal_martingale's chunker makes, in order."""
    steps = []
    draw = martingales.sample_step_increments

    def recording(rng, law, out):
        steps.append(len(out))
        return draw(rng, law, out)
    monkeypatch.setattr(martingales, "sample_step_increments", recording)
    return steps


class TestDiagonalRegression:
    """The mirrored ensemble: iid draws on half the paths, summed in one tile."""

    @pytest.mark.parametrize("variance", [1.0, 0.37], ids=["unit", "scalar"])
    @pytest.mark.parametrize("law", ["rademacher", "uniform"])
    def test_matches_hand_loop(self, monkeypatch, law, variance):
        paths, horizon = 64, 30
        monkeypatch.setattr(martingales, "_STREAM_TILE", 32 * 7)   # chunks of 7 steps
        steps = _record_draws(monkeypatch)
        path = gen_diagonal_martingale(horizon, paths=paths, law=law, variance=variance,
                                       seed=11)
        assert steps == [7, 7, 7, 7, 2]
        final, scale = _hand_loop_diagonal(horizon, paths, law, variance, 11, 32 * 7)
        np.testing.assert_array_equal(path.final.data, final)
        np.testing.assert_array_equal(path.s2, np.cumsum(np.full(horizon, variance)))
        np.testing.assert_array_equal(path.dnorm, np.full(horizon, scale))
        assert path.md_residual == 0.0
        assert path.meta == {"law": law, "seed": 11}

    @pytest.mark.parametrize("law, variance", [("rademacher", 1.0), ("rademacher", 0.37),
                                               ("uniform", 1.0), ("uniform", 0.81)])
    def test_tile_invariant(self, monkeypatch, law, variance):
        """Neither the draws nor the integer sums depend on the tile, so the
        final values are bit-identical at every law and variance."""
        def run():
            return gen_diagonal_martingale(3000, paths=512, law=law, variance=variance,
                                           seed=4).final.data

        steps = _record_draws(monkeypatch)
        whole = run()
        assert steps == [512] * 5 + [440]                 # the 1 MiB tile at 256 paths
        monkeypatch.setattr(martingales, "_STREAM_TILE", 256 * 7)
        steps.clear()
        tiled = run()
        assert steps == [7] * 428 + [4]
        np.testing.assert_array_equal(tiled, whole)
