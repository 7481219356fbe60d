import importlib
import inspect
import secrets
import tracemalloc

import numpy as np
import pytest
import scipy.special

from rankscreen.errors import DegenerateEvaluation, InvalidInput
from rankscreen.rc_screen import (
    _child_keys,
    _last_rademacher,
    _norm_ppf,
    _philox_words,
    _rademacher_matrix,
    rc_utility,
    robust_corr,
    robust_corr_ci,
    wild_bootstrap_test,
)

# the module: the package binds the name rc_screen to the function
rc_module = importlib.import_module("rankscreen.rc_screen")

# seeds of 1, 1, 2, 3, 5 and 7 uint32 words: past 4 words SeedSequence
# mixes the rest of the entropy into the pool word by word
_SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 128 + 9,
          2 ** 200 + 3]


class TestNormalQuantile:
    @pytest.mark.parametrize("p", [1e-9, 1e-4, 0.01, 0.025, 0.2, 0.5, 0.8,
                                   0.975, 0.99, 1 - 1e-4, 1 - 1e-9])
    def test_against_scipy(self, p):
        assert _norm_ppf(p) == pytest.approx(scipy.special.ndtri(p), abs=1e-8)

    def test_rejects_boundary(self):
        with pytest.raises(InvalidInput):
            _norm_ppf(0.0)
        with pytest.raises(InvalidInput):
            _norm_ppf(1.0)


class TestRobustCorrCi:
    def test_variance_nonnegative_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(5, 80))
            y = rng.standard_normal(n)
            x = rng.standard_normal(n)
            i = int(rng.integers(0, n))
            ci = robust_corr_ci(y[i], x[i], y, x)
            assert ci.variance >= 0.0
            assert ci.lower <= ci.estimate <= ci.upper

    def test_interval_width_matches_definition(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(100)
        x = rng.standard_normal(100)
        ci = robust_corr_ci(0.0, 0.0, y, x, level=0.9)
        z = _norm_ppf(0.95)
        assert ci.upper - ci.lower == pytest.approx(
            2 * z * np.sqrt(ci.variance / 100), rel=1e-12)

    def test_estimate_matches_pointwise_estimator(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(50)
        x = rng.standard_normal(50)
        ci = robust_corr_ci(y[0], x[0], y, x)
        assert ci.estimate == pytest.approx(robust_corr(y[0], x[0], y, x),
                                            rel=1e-12)

    def test_estimate_bit_identical_to_pointwise_estimator(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            n = int(rng.integers(30, 401))
            if trial % 2:  # tied samples
                y = rng.integers(0, 4, n).astype(float)
                x = rng.integers(0, 7, n).astype(float)
            else:
                y = rng.standard_cauchy(n)
                x = rng.standard_normal(n)
            i = int(rng.integers(0, n))
            ci = robust_corr_ci(y[i], x[i], y, x)
            assert ci.estimate.hex() == robust_corr(y[i], x[i], y, x).hex()

    def test_null_ci_contains_zero_near_nominal_rate(self):
        rng = np.random.default_rng(3)
        contains = 0
        reps = 300
        for _ in range(reps):
            y = rng.standard_normal(200)
            x = rng.standard_normal(200)
            ci = robust_corr_ci(0.0, 0.0, y, x)
            contains += ci.lower <= 0.0 <= ci.upper
        assert 0.90 <= contains / reps <= 0.99

    def test_degenerate_point_raises(self):
        y = np.arange(10.0)
        x = np.arange(10.0)
        with pytest.raises(DegenerateEvaluation):
            robust_corr_ci(-5.0, 5.0, y, x)

    def test_bad_level(self):
        with pytest.raises(InvalidInput):
            robust_corr_ci(0, 0, [1, 2, 3], [1, 2, 3], level=1.5)

    def test_nan_query_point_rejected(self):
        with pytest.raises(InvalidInput, match="NaN"):
            robust_corr_ci(np.nan, 0, [1, 2, 3], [1, 2, 3])


class TestWildBootstrap:
    def test_rademacher_matrix_reused_read_only(self):
        first = _rademacher_matrix(3, 20, 8)
        assert _rademacher_matrix(3, 20, 8) is first
        assert first.dtype == bool and not first.flags.writeable
        other = _rademacher_matrix(4, 20, 8)
        assert not np.array_equal(other, first)
        assert np.array_equal(_rademacher_matrix(3, 20, 8), first)

    @pytest.mark.parametrize("n", [1, 2, 9, 30, 200, 201])
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_rademacher_mask_columns_are_child_stream_draws(self, n, seed,
                                                            monkeypatch):
        # column d is True where the d-th child stream of SeedSequence(seed)
        # draws +1 with `integers`, so a replicate's signs depend only on
        # the seed and d; the mask reads them from the raw words, an odd n
        # leaving the last word's high half unused.  A 64-word slice puts
        # the 70 replicates in 2 to 70 slices.
        monkeypatch.setattr(rc_module, "_PHILOX_SLICE", 64)
        _last_rademacher.clear()
        mask = _rademacher_matrix(seed, n, 70)
        assert mask.shape == (n, 70) and mask.flags.c_contiguous
        for d, child in enumerate(np.random.SeedSequence(seed).spawn(70)):
            gen = np.random.Generator(np.random.Philox(child))
            assert np.array_equal(mask[:, d],
                                  gen.integers(0, 2, size=n) == 1)
        assert np.array_equal(_rademacher_matrix(seed, n, 9), mask[:, :9])

    def test_rademacher_mask_does_not_depend_on_the_slice(self, monkeypatch):
        # 700 replicates of 101 words are two slices of the default size
        # and 700 of a one-word slice
        n_words = (201 + 1) // 2
        assert rc_module._PHILOX_SLICE // n_words < 700
        _last_rademacher.clear()
        mask = _rademacher_matrix(5, 201, 700)
        monkeypatch.setattr(rc_module, "_PHILOX_SLICE", 1)
        _last_rademacher.clear()
        assert np.array_equal(_rademacher_matrix(5, 201, 700), mask)

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_philox_words_are_the_child_streams_raw_words(self, seed):
        # 13 words: the fourth counter block is cut after its first word
        children = np.random.SeedSequence(seed).spawn(5)
        keys = _child_keys(seed, 5)
        words = _philox_words(keys, 13)
        assert keys.dtype == words.dtype == np.uint64
        assert words.shape == (5, 13)
        for d, child in enumerate(children):
            assert np.array_equal(keys[d], child.generate_state(2, np.uint64))
            assert np.array_equal(words[d],
                                  np.random.Philox(child).random_raw(13))

    def test_rademacher_memory_is_the_mask_plus_a_bound(self):
        # the words are made one slice at a time, so no (n_boot, n / 2)
        # uint64 array is formed
        n, n_boot = 2000, 2000
        _last_rademacher.clear()
        tracemalloc.start()
        try:
            _rademacher_matrix(1, n, n_boot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n_boot + 4 * 2 ** 20

    def test_rademacher_parameter_names(self):
        # perfbench's tracer hook `_rademacher` reads the call's arguments
        # by these names, so renaming one crashes every traced run
        assert list(inspect.signature(_rademacher_matrix).parameters) == [
            "seed", "n", "n_boot"]

    def test_fixed_seed_bit_identical(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(80)
        x = rng.standard_normal(80)
        a = wild_bootstrap_test(y, x, n_boot=150, alpha=0.05, seed=42)
        b = wild_bootstrap_test(y, x, n_boot=150, alpha=0.05, seed=42)
        assert a == b

    def test_different_seed_changes_replicates(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(80)
        x = rng.standard_normal(80)
        a = wild_bootstrap_test(y, x, n_boot=150, seed=1)
        b = wild_bootstrap_test(y, x, n_boot=150, seed=2)
        assert a.statistic == b.statistic
        assert a.critical_value != b.critical_value

    def test_duplicated_column_rejects_with_minimal_p(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(100)
        res = wild_bootstrap_test(y, y, n_boot=200, alpha=0.05, seed=7)
        assert res.reject
        assert res.p_value == pytest.approx(1 / 201)

    def test_power_against_near_duplicate(self):
        rng = np.random.default_rng(7)
        rejections = 0
        reps = 20
        for r in range(reps):
            y = rng.standard_normal(100)
            x = y + 0.1 * rng.standard_normal(100)
            res = wild_bootstrap_test(y, x, n_boot=200, alpha=0.05,
                                      seed=500 + r)
            rejections += res.reject
        assert rejections >= 19

    def test_reject_consistent_with_critical_value(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal(60)
        x = rng.standard_normal(60)
        res = wild_bootstrap_test(y, x, n_boot=99, seed=3)
        assert res.reject == (res.statistic > res.critical_value)

    def test_auto_seed_is_recorded_and_replayable(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(50)
        x = rng.standard_normal(50)
        first = wild_bootstrap_test(y, x, n_boot=100)
        replay = wild_bootstrap_test(y, x, n_boot=100, seed=first.seed)
        assert first == replay

    def test_auto_seed_is_128_fresh_bits(self, monkeypatch):
        # the bits SeedSequence() draws, taken without numpy.random
        monkeypatch.setattr(secrets, "randbits",
                            lambda k: 2 ** 127 + 3 if k == 128 else None)
        res = wild_bootstrap_test(np.arange(9.0), np.arange(9.0) % 4, 10)
        assert res.seed == 2 ** 127 + 3
        assert res == wild_bootstrap_test(np.arange(9.0),
                                          np.arange(9.0) % 4, 10,
                                          seed=2 ** 127 + 3)

    @pytest.mark.parametrize("n_boot", [1, 2.5, True, "10"])
    def test_too_few_replicates(self, n_boot):
        with pytest.raises(InvalidInput, match="bootstrap replicates"):
            wild_bootstrap_test([1, 2, 3], [1, 2, 3], n_boot=n_boot)

    def test_bad_alpha(self):
        with pytest.raises(InvalidInput):
            wild_bootstrap_test([1, 2, 3], [1, 2, 3], n_boot=10, alpha=0.0)

    def test_negative_seed(self):
        with pytest.raises(InvalidInput, match="seed must be an integer >= 0"):
            wild_bootstrap_test([1, 2, 3], [1, 2, 3], n_boot=10, seed=-1)

    def test_overflowing_replicates_named(self):
        # the mean overflows, so every replicate does; no RuntimeWarning
        x = np.array([1.7e308, 1.7e308, -1e308, 0, 1, 2])
        with pytest.raises(InvalidInput,
                           match="x_col's sign-flipped replicates overflow"):
            wild_bootstrap_test(np.arange(6.0), x, 50, seed=1)

    def test_overflow_raised_exactly_when_selected(self):
        # only b_0 = mean - dev_0 = 1.8e308 overflows: an error exactly
        # when some replicate flips row 0
        x = np.array([-1e308, 1e308, 0.8e308, 0.8e308])
        y = np.arange(4.0)
        outcomes = set()
        for seed in range(12):
            flipped = bool((~_rademacher_matrix(seed, 4, 2)[0]).any())
            outcomes.add(flipped)
            if flipped:
                with pytest.raises(InvalidInput, match="overflow"):
                    wild_bootstrap_test(y, x, 2, seed=seed)
            else:
                res = wild_bootstrap_test(y, x, 2, seed=seed)
                assert res.statistic == rc_utility(y, x)
        assert outcomes == {True, False}
