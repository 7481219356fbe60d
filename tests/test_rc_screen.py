import numpy as np
import pytest

from rankscreen.dataset import Dataset
from rankscreen.errors import InvalidInput
from rankscreen.rc_screen import (
    _rho_from_counts,
    rc_screen,
    rc_utilities,
    rc_utility,
    robust_corr,
)
from rankscreen.report import TopD, UtilityThreshold, default_top_d

from oracles import rc_utility_oracle


class TestRobustCorr:
    def test_comonotone_at_median_is_one(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(41)
        med = np.median(y)
        assert robust_corr(med, med, y, y) == 1.0

    def test_hand_evaluated_antithetic_point(self):
        # sample {(1,4),(2,3),(3,2),(4,1)} at (2,2): counts ry=rx=2, c=0
        # -> (5*0 - 4)/sqrt(2*3*2*3) = -2/3
        y = [1, 2, 3, 4]
        x = [4, 3, 2, 1]
        assert robust_corr(2, 2, y, x) == pytest.approx(-2 / 3, abs=1e-15)

    def test_below_all_data_returns_zero(self):
        assert robust_corr(-10, 0.5, [1, 2, 3], [0, 1, 2]) == 0.0

    def test_bounded_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            y = rng.integers(0, 6, size=n).astype(float)
            x = rng.integers(0, 6, size=n).astype(float)
            val = robust_corr(y[0], x[0], y, x)
            assert -1.0 <= val <= 1.0

    def test_independent_columns_average_small(self):
        rng = np.random.default_rng(2)
        n = 200
        y = rng.standard_normal(n)
        x = rng.permutation(y)
        vals = [abs(robust_corr(yi, xi, y, x)) for yi, xi in zip(y, x)]
        assert np.mean(vals) < 0.15

    def test_too_short(self):
        with pytest.raises(InvalidInput):
            robust_corr(0, 0, [1.0], [1.0])


class TestRcUtility:
    def test_identity_is_exactly_one(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(30)
        assert rc_utility(y, y) == 1.0

    def test_increasing_transform_is_exactly_one(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(30)
        assert rc_utility(y, np.exp(y)) == 1.0

    def test_decreasing_transform_invariance(self):
        # all strictly decreasing transforms share ranks with -y, so their
        # utilities agree bit for bit and approach 1 with n
        rng = np.random.default_rng(5)
        y = rng.standard_normal(300)
        u_neg = rc_utility(y, -y)
        assert rc_utility(y, np.exp(-y)) == u_neg
        assert rc_utility(y, -(y ** 3)) == u_neg
        assert 0.85 < u_neg < 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_triple_loop_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 21))
        y = rng.standard_normal(n)
        x = rng.standard_normal(n)
        assert rc_utility(y, x) == rc_utility_oracle(y, x)

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle_match_with_ties(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 20
        y = rng.integers(0, 4, size=n).astype(float)
        x = rng.integers(0, 5, size=n).astype(float)
        assert rc_utility(y, x) == rc_utility_oracle(y, x)

    def test_range_on_random_inputs(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            y = rng.standard_normal(n)
            x = rng.standard_normal(n)
            assert 0.0 <= rc_utility(y, x) <= 1.0

    def test_noisy_relation_below_one(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(100)
        x = y + rng.standard_normal(100)
        assert rc_utility(y, x) < 1.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            rc_utility([1, 2, 3], [1, 2])


class TestRcUtilitiesBatch:
    def test_batch_equals_single_pair_bitwise(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal(60)
        x = rng.standard_normal((60, 9))
        x[:, 2] = rng.integers(0, 3, size=60)
        batch = rc_utilities(y, x)
        for j in range(9):
            assert batch[j] == rc_utility(y, x[:, j])

    def test_rho_exact_at_large_n(self):
        # identity counts c = ry = rx give rho = 1 exactly; the radicand
        # product exceeds int64 here, so it must not be formed in int64
        n = 120_000
        counts = np.arange(1, n + 1, dtype=np.int64)
        rho = _rho_from_counts(counts, counts, counts, n)
        assert np.all(rho == 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_rejected_by_index(self, bad):
        x = np.c_[np.arange(5.0), [0.0, 1.0, bad, 3.0, 4.0]]
        with pytest.raises(InvalidInput, match=r"covariate column 1 "):
            rc_utilities(np.arange(5.0), x)


def _noise_dataset(seed=10, n=100, p=4):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    x = rng.standard_normal((n, p))
    x[:, 0] = y
    return Dataset(y=y, x=x)


class TestRcScreen:
    def test_duplicate_response_ranks_first(self):
        report = rc_screen(_noise_dataset())
        assert report.ranking[0] == 0
        assert report.utilities[0] == 1.0

    def test_default_budget_n100(self):
        assert default_top_d(100) == 21
        report = rc_screen(_noise_dataset())
        assert isinstance(report.selection, TopD)
        assert report.selection.d == 21

    def test_threshold_mode(self):
        report = rc_screen(_noise_dataset(), UtilityThreshold(0.5))
        assert report.selected.tolist() == [0]

    def test_nan_column_is_named(self):
        ds = _noise_dataset()
        x = ds.x.copy()
        x[3, 2] = np.nan
        with pytest.raises(InvalidInput, match="x0003"):
            rc_screen(Dataset(y=ds.y, x=x))

    def test_monotone_transform_leaves_report_bit_identical(self):
        ds = _noise_dataset(seed=11)
        x2 = ds.x.copy()
        x2[:, 1] = np.exp(x2[:, 1])
        x2[:, 3] = x2[:, 3] ** 3
        r1 = rc_screen(ds)
        r2 = rc_screen(Dataset(y=np.exp(ds.y), x=x2))
        assert np.array_equal(r1.utilities, r2.utilities)
        assert np.array_equal(r1.ranking, r2.ranking)
        assert np.array_equal(r1.selected, r2.selected)

    def test_tie_break_by_column_index(self):
        y = np.arange(10.0)
        x = np.column_stack([y, y, -y])
        report = rc_screen(Dataset(y=y, x=x), TopD(2))
        assert report.ranking.tolist()[:2] == [0, 1]

    def test_discrete_response_supported(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((80, 3))
        y = (x[:, 0] > 0).astype(float)
        report = rc_screen(Dataset(y=y, x=x))
        assert report.ranking[0] == 0


class TestPermutationNull:
    def test_permuted_column_rarely_beats_critical_value(self):
        from rankscreen.rc_screen import wild_bootstrap_test

        rng = np.random.default_rng(13)
        y = rng.standard_normal(120)
        x = y + 0.5 * rng.standard_normal(120)
        rejected = 0
        reps = 30
        for r in range(reps):
            x_perm = rng.permutation(x)
            res = wild_bootstrap_test(y, x_perm, n_boot=200, alpha=0.05,
                                      seed=1000 + r)
            rejected += res.reject
        # expect about alpha * reps rejections; allow generous MC slack
        assert rejected <= 5
