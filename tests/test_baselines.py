import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rankscreen.baselines import (
    kendall_sis,
    kendall_tau_b,
    kendall_utility,
    pearson_sis,
    pearson_utility,
)
from rankscreen.dataset import Dataset
from rankscreen.errors import InvalidInput

from oracles import kendall_tau_oracle, pearson_oracle


class TestPearson:
    def test_perfect_linear(self):
        y = np.arange(10.0)
        assert pearson_utility(y, 2 * y + 1) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonalized_column_scores_zero(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(40)
        x = rng.standard_normal(40)
        yc = y - y.mean()
        x_orth = x - (x - x.mean()) @ yc / (yc @ yc) * yc - x.mean() + x.mean()
        x_orth = x - ((x - x.mean()) @ yc / (yc @ yc)) * yc
        assert pearson_utility(y, x_orth) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_textbook_formula(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(10)
        x = rng.standard_normal(10)
        assert pearson_utility(y, x) == pytest.approx(
            abs(pearson_oracle(list(y), list(x))), abs=1e-12)

    def test_zero_variance_warns_not_raises(self):
        with pytest.warns(UserWarning):
            assert pearson_utility([1, 2, 3], [5, 5, 5]) == 0.0

    def test_affine_equivariance_only(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(50)
        x = y + rng.standard_normal(50)
        base = pearson_utility(y, x)
        assert pearson_utility(y, -3 * x + 7) == pytest.approx(base, rel=1e-12)
        # a nonlinear monotone map changes the Pearson utility
        assert pearson_utility(y, np.exp(x)) != pytest.approx(base, rel=1e-6)


class TestKendall:
    def test_strictly_increasing_is_one(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(25)
        assert kendall_utility(y, np.exp(y)) == 1.0

    def test_strictly_decreasing_is_one(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(25)
        assert kendall_utility(y, -y) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_ties_match_pair_count_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 5, size=30).astype(float)
        x = rng.integers(0, 4, size=30).astype(float)
        assert kendall_tau_b(y, x) == kendall_tau_oracle(list(y), list(x))

    @pytest.mark.parametrize("n", [10, 60, 200])
    def test_fast_path_equals_bruteforce_up_to_n200(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n)
        x = rng.standard_normal(n)
        assert kendall_tau_b(y, x) == kendall_tau_oracle(list(y), list(x))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(40)
        x = y + rng.standard_normal(40)
        base = kendall_utility(y, x)
        assert kendall_utility(np.exp(y), x ** 3) == base

    def test_constant_column_warns(self):
        with pytest.warns(UserWarning):
            assert kendall_utility([1, 2, 3], [7, 7, 7]) == 0.0


    def test_n2(self):
        assert kendall_tau_b([1.0, 2.0], [5.0, 3.0]) == -1.0
        assert math.isnan(kendall_tau_b([1.0, 2.0], [4.0, 4.0]))

    def test_memory_linear_in_n(self):
        # an n x n float64 sign matrix alone would take 200 MB here
        n = 5000
        rng = np.random.default_rng(12)
        y = rng.standard_normal(n)
        x = rng.integers(0, 50, n).astype(float)
        tracemalloc.start()
        try:
            kendall_tau_b(y, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * n * 8


class TestKendallBatch:
    """`kendall_sis` utilities equal the pair-count oracle column by column."""

    @staticmethod
    def _assert_matches_oracle(y, x):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            utilities = kendall_sis(Dataset(y=y, x=x)).utilities
        for j in range(x.shape[1]):
            tau = kendall_tau_oracle(list(y), list(x[:, j]))
            assert utilities[j] == (0.0 if math.isnan(tau) else abs(tau))

    @pytest.mark.parametrize("seed", range(3))
    def test_bernoulli_y_few_level_x(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        y = rng.integers(0, 2, n).astype(float)
        x = rng.integers(0, 3, (n, 12)).astype(float)
        x[:, 5] = rng.standard_normal(n)
        x[:, 7] = 2.0  # constant column
        self._assert_matches_oracle(y, x)

    def test_constant_y(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 4, (20, 5)).astype(float)
        with pytest.warns(UserWarning, match="constant"):
            report = kendall_sis(Dataset(y=np.full(20, 1.5), x=x))
        assert np.array_equal(report.utilities, np.zeros(5))

    def test_two_observations(self):
        x = np.array([[1.0, 3.0, 2.0], [2.0, 1.0, 2.0]])
        self._assert_matches_oracle(np.array([0.0, 1.0]), x)

    @pytest.mark.parametrize("p", [255, 256, 257])
    def test_chunk_boundary(self, p):
        rng = np.random.default_rng(p)
        n = 12
        y = rng.integers(0, 4, n).astype(float)
        x = rng.integers(0, 5, (n, p)).astype(float)
        x[:, p - 1] = -1.0  # constant last column, alone in its chunk at 257
        self._assert_matches_oracle(y, np.asfortranarray(x))


class TestScreeners:
    def _dataset(self, seed=5, n=60, p=5):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        y = 2 * x[:, 0] + 0.5 * x[:, 1] + rng.standard_normal(n)
        return Dataset(y=y, x=x)

    def test_pearson_screen_ranks_signal_first(self):
        report = pearson_sis(self._dataset())
        assert report.method == "Pearson-SIS"
        assert report.ranking[0] == 0

    def test_kendall_screen_ranks_signal_first(self):
        report = kendall_sis(self._dataset())
        assert report.method == "Kendall-SIS"
        assert report.ranking[0] == 0

    def test_screen_utilities_match_pairwise_functions(self):
        ds = self._dataset(seed=6)
        p_report = pearson_sis(ds)
        k_report = kendall_sis(ds)
        for j in range(ds.p):
            assert p_report.utilities[j] == pytest.approx(
                pearson_utility(ds.y, ds.x[:, j]), rel=1e-12)
            assert k_report.utilities[j] == kendall_utility(ds.y, ds.x[:, j])

    def test_pearson_needs_three_observations(self):
        ds = Dataset(y=np.array([1.0, 2.0]), x=np.ones((2, 2)))
        with pytest.raises(InvalidInput):
            pearson_sis(ds)

    def test_kendall_invariance_of_full_report(self):
        ds = self._dataset(seed=7)
        x2 = ds.x.copy()
        x2[:, 0] = np.exp(x2[:, 0])
        r1 = kendall_sis(ds)
        r2 = kendall_sis(Dataset(y=ds.y ** 3, x=x2))
        assert np.array_equal(r1.utilities, r2.utilities)
        assert np.array_equal(r1.ranking, r2.ranking)
