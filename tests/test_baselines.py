import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rankscreen import empirical
from rankscreen.baselines import (
    _kendall_taus,
    kendall_sis,
    kendall_tau_b,
    kendall_utility,
    pearson_sis,
    pearson_utility,
)
from rankscreen.dataset import Dataset
from rankscreen.empirical import leq_counts
from rankscreen.errors import InvalidInput
from rankscreen.rc_screen import rc_screen

from oracles import kendall_tau_oracle, pearson_oracle


def _pearson_sis_utilities(y, x):
    return pearson_sis(Dataset(y=y, x=x)).utilities.tolist()


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

    def test_constant_column_is_exactly_zero(self):
        # the mean of ten 0.3s is not 0.3, so the centred column is not zero
        y = np.arange(10.0) % 7
        with pytest.warns(UserWarning, match="zero-variance"):
            assert pearson_utility(y, np.full(10, 0.3)) == 0.0
        with pytest.warns(UserWarning, match="zero-variance"):
            assert pearson_utility(np.full(10, 0.3), y) == 0.0

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_extreme_column_scales(self, scale):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(50)
        x = y + rng.standard_normal(50)
        base = pearson_utility(y, x)
        assert 0.6 < base < 0.8
        assert pearson_utility(y, x * scale) == pytest.approx(base, rel=1e-14)
        assert pearson_utility(y * scale, x) == pytest.approx(base, rel=1e-14)

    @pytest.mark.parametrize("power", [-1000, -40, 3, 900])
    def test_power_of_two_scale_is_bit_identical(self, power):
        rng = np.random.default_rng(2)
        y = rng.standard_t(3, 80)
        x = rng.standard_t(3, (80, 4)) + y[:, None]
        base = _pearson_sis_utilities(y, x)
        assert _pearson_sis_utilities(y, np.ldexp(x, power)) == base
        assert _pearson_sis_utilities(np.ldexp(y, power), x) == base

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

    @pytest.mark.parametrize("n, y_sizes, x_sizes", [
        (256, [1, 200, 55], [120, 1, 135]),
        (300, [50, 218, 32], [100, 82, 118]),
    ])
    def test_signed_taus_past_a_byte(self, n, y_sizes, x_sizes):
        # uint16 counts.  The tie groups of y and of column 0 are sized so
        # that the key ry (n + 1) + rx, wrapped at 2^16, would give distinct
        # (ry, rx) pairs one value (257 * 255 + 1 = 301 * 218 - 82 = 2^16);
        # column 1 is negatively associated with y, so S < 0
        rng = np.random.default_rng(n)
        y = np.repeat([0.0, 1.0, 2.0], y_sizes)
        x = rng.permutation(np.repeat([0.0, 1.0, 2.0], x_sizes))
        # at n = 256 the colliding rows are the lowest y at x = 0 and the
        # highest y at x = 1
        one = np.flatnonzero(x == 1.0)[0]
        x[[one, -1]] = x[[-1, one]]
        zero = np.flatnonzero(x == 0.0)[0]
        x[[zero, 0]] = x[[0, zero]]
        ry, rx = leq_counts(y).astype(int), leq_counts(x).astype(int)
        wrapped = (ry * (n + 1) + rx) % 2 ** 16
        assert len(set(wrapped.tolist())) < len(set(zip(ry, rx)))
        x = np.c_[x, rng.integers(0, 2, n) - y, rng.standard_normal(n)]
        rows = rng.permutation(n)
        y, x = y[rows], x[rows]
        taus = _kendall_taus(y, x)
        assert taus[1] < -0.5
        for j in range(3):
            assert taus[j] == kendall_tau_oracle(list(y), list(x[:, j]))

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
        x[:, p - 1] = -1.0  # constant last column
        self._assert_matches_oracle(y, np.asfortranarray(x))

    @pytest.mark.parametrize("p", [64, 65, 129])
    def test_columns_across_count_chunks(self, monkeypatch, p):
        # a cell budget of 64 columns at n = 12: at 129 the constant last
        # column is alone in the third chunk
        monkeypatch.setattr(empirical, "_CELLS", 12 * 64)
        rng = np.random.default_rng(p)
        n = 12
        y = rng.integers(0, 4, n).astype(float)
        x = rng.integers(0, 5, (n, p)).astype(float)
        x[:, p - 1] = -1.0
        self._assert_matches_oracle(y, np.asfortranarray(x))

    def test_real_budget_width_crossed(self):
        # at n = 2100 the real budget gives 64-column chunks; every column
        # equals its own one-column call
        rng = np.random.default_rng(21)
        n, p = 2100, 65
        y = rng.integers(0, 3, n).astype(float)
        x = rng.integers(0, 40, (n, p)).astype(float)
        utilities = kendall_sis(Dataset(y=y, x=x)).utilities
        assert utilities[63:].tolist() == [
            kendall_utility(y, x[:, j]) for j in (63, 64)]


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
            assert p_report.utilities[j] == pearson_utility(ds.y, ds.x[:, j])
            assert k_report.utilities[j] == kendall_utility(ds.y, ds.x[:, j])

    @pytest.mark.parametrize("n, p", [(5, 300), (203, 9), (1000, 3)])
    def test_pearson_bits_independent_of_layout_and_width(self, n, p):
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n)
        x = rng.standard_normal((n, p)) * rng.random(p) * 10 + rng.random(p)
        pairwise = [pearson_utility(y, x[:, j]) for j in range(p)]
        for order in "CF":
            ds = Dataset(y=y, x=np.asarray(x, order=order))
            assert pearson_sis(ds).utilities.tolist() == pairwise
        # a column's bits do not depend on the other columns
        tail = pearson_sis(Dataset(y=y, x=x[:, p // 2:])).utilities
        assert tail.tolist() == pairwise[p // 2:]

    @pytest.mark.parametrize("p", [64, 65, 129])
    def test_pearson_columns_across_count_chunks(self, monkeypatch, p):
        # Pearson takes the counting stream's chunk width: 64 columns here
        rng = np.random.default_rng(p)
        n = 12
        y = rng.standard_normal(n)
        x = rng.standard_normal((n, p))
        x[:, p - 1] = -1.0  # constant last column
        with pytest.warns(UserWarning, match="zero-variance"):
            whole = pearson_sis(Dataset(y=y, x=x)).utilities
        monkeypatch.setattr(empirical, "_CELLS", n * 64)
        assert len(list(empirical.column_chunks(x))) == -(-p // 64)
        with pytest.warns(UserWarning, match="zero-variance"):
            chunked = pearson_sis(Dataset(y=y, x=x)).utilities
        assert chunked.tolist() == whole.tolist()
        assert chunked[-1] == 0.0

    def test_pearson_constant_column_is_exactly_zero(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 3))
        x[:, 1] = 0.3
        ds = Dataset(y=np.arange(10.0) % 7, x=x)
        with pytest.warns(UserWarning, match="zero-variance"):
            report = pearson_sis(ds)
        assert report.utilities[1] == 0.0
        assert report.ranking[-1] == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_pearson_needs_three_observations(self, n):
        # the pairwise function is the batch path's one-column call
        y, x = np.array([1.0, 2.0])[:n], np.array([3.0, 5.0])[:n]
        with pytest.raises(InvalidInput, match="at least 3 observations"):
            pearson_sis(Dataset(y=y, x=x[:, None]))
        with pytest.raises(InvalidInput, match="at least 3 observations"):
            pearson_utility(y, x)

    @pytest.mark.parametrize("screen", [pearson_sis, kendall_sis, rc_screen])
    @pytest.mark.parametrize("shrunk", [False, True])
    def test_non_finite_written_after_construction(self, screen, shrunk,
                                                   monkeypatch):
        if shrunk:  # one column per chunk: the global index is named
            monkeypatch.setattr(empirical, "_CELLS", 1)
            monkeypatch.setattr(empirical, "_STEP", 1)
        ds = self._dataset(seed=9, n=30, p=4)
        ds.x[3, 2] = np.nan
        with pytest.raises(InvalidInput, match="^covariate column 2 is not"):
            screen(ds)
        ds = self._dataset(seed=9, n=30, p=4)
        ds.y[5] = np.inf
        with pytest.raises(InvalidInput, match="^response contains non-fin"):
            screen(ds)

    def test_constant_response_still_checks_columns(self):
        ds = Dataset(y=np.ones(10), x=np.ones((10, 2)))
        ds.x[0, 1] = np.nan
        with pytest.raises(InvalidInput, match="covariate column 1"):
            pearson_sis(ds)

    def test_kendall_invariance_of_full_report(self):
        ds = self._dataset(seed=7)
        x2 = ds.x.copy()
        x2[:, 0] = np.exp(x2[:, 0])
        r1 = kendall_sis(ds)
        r2 = kendall_sis(Dataset(y=ds.y ** 3, x=x2))
        assert np.array_equal(r1.utilities, r2.utilities)
        assert np.array_equal(r1.ranking, r2.ranking)
