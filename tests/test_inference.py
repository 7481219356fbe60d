import numpy as np
import pytest
import scipy.special

from rankscreen.errors import DegenerateEvaluation, InvalidInput
from rankscreen.rc_screen import (
    _norm_ppf,
    _rademacher_matrix,
    robust_corr,
    robust_corr_ci,
    wild_bootstrap_test,
)


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


class TestWildBootstrap:
    def test_rademacher_matrix_reused_read_only(self):
        first = _rademacher_matrix(3, 20, 8)
        assert _rademacher_matrix(3, 20, 8) is first
        assert not first.flags.writeable
        other = _rademacher_matrix(4, 20, 8)
        assert not np.array_equal(other, first)
        assert np.array_equal(_rademacher_matrix(3, 20, 8), first)

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

    def test_too_few_replicates(self):
        with pytest.raises(InvalidInput):
            wild_bootstrap_test([1, 2, 3], [1, 2, 3], n_boot=1)

    def test_bad_alpha(self):
        with pytest.raises(InvalidInput):
            wild_bootstrap_test([1, 2, 3], [1, 2, 3], n_boot=10, alpha=0.0)
