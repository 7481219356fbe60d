import importlib
import tracemalloc

import numpy as np
import pytest

from rankscreen import empirical
from rankscreen.dataset import Dataset
from rankscreen.errors import InvalidInput
from rankscreen.rc_screen import (
    _bootstrap_utilities,
    _rademacher_matrix,
    _rho_from_counts,
    rc_screen,
    rc_utilities,
    rc_utility,
    robust_corr,
    wild_bootstrap_test,
)
from rankscreen.report import TopD, UtilityThreshold, default_top_d

from oracles import rc_utility_oracle, rho_table_oracle

# the module: the package binds the name rc_screen to the function
rc_module = importlib.import_module("rankscreen.rc_screen")


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

    @pytest.mark.parametrize("y, x", [(np.nan, 0.0), (0.0, np.nan)])
    def test_nan_query_point_rejected(self, y, x):
        # a NaN compares false with every sample value, which would read as
        # a point below all data and return the convention's 0
        with pytest.raises(InvalidInput, match="NaN"):
            robust_corr(y, x, [1.0, 2.0, 3.0], [3.0, 1.0, 2.0])


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


def _assert_bootstrap_matches_formed(y, x, n_boot, seed):
    take_a = _rademacher_matrix(seed, y.size, n_boot)
    iota = np.where(take_a, 1.0, -1.0)
    formed = np.column_stack([x, x.mean() + iota * (x - x.mean())[:, None]])
    dev = x - x.mean()
    ranks = empirical.leq_counts_choice(dev + x.mean(), x.mean() - dev,
                                        take_a)
    assert np.array_equal(ranks, empirical.leq_counts_matrix(formed[:, 1:]))
    assert (_bootstrap_utilities(y, x, take_a).tobytes()
            == rc_utilities(y, formed).tobytes())


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

    @pytest.mark.parametrize("n", [2, 7, 129, 203])
    @pytest.mark.parametrize("p", [1, 63, 64, 65, 129])
    def test_blocks_equal_per_column_reference_bitwise(self, p, n):
        # utilities are reduced in column blocks; every column must equal
        # its own 1-D np.mean of rho^2 from all-pairs counts, bit for bit
        rng = np.random.default_rng(1000 * p + n)
        y = rng.integers(0, max(2, n // 4), size=n).astype(float)
        x = rng.standard_normal((n, p))
        x[:, ::2] = rng.integers(0, 3, size=(n, (p + 1) // 2))
        x[:, -1] = x[0, -1]
        ley = y[None, :] <= y[:, None]
        ry = ley.sum(axis=1)
        expected = np.empty(p)
        for j in range(p):
            lex = x[None, :, j] <= x[:, None, j]
            rho = _rho_from_counts((ley & lex).sum(axis=1), ry,
                                   lex.sum(axis=1), n)
            expected[j] = np.mean(rho * rho)
        assert rc_utilities(y, x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bootstrap_statistic_is_rc_utility_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 6, size=90).astype(float)
        x = y + rng.standard_normal(90)
        x[::3] = 0.5
        n_boot = 70
        res = wild_bootstrap_test(y, x, n_boot=n_boot, alpha=0.1, seed=seed)
        assert res.statistic == rc_utility(y, x)
        # replicates: each sign-flipped column on its own
        iota = np.where(_rademacher_matrix(seed, 90, n_boot), 1.0, -1.0)
        boot = rc_utilities(y, x.mean() + iota * (x - x.mean())[:, None])
        k = int(np.ceil((1.0 - 0.1) * n_boot - 1e-9))
        assert res.critical_value == np.partition(boot, k - 1)[k - 1]
        assert res.p_value == ((1 + int(np.sum(boot >= res.statistic)))
                               / (n_boot + 1))

    @pytest.mark.parametrize("case", [
        "zero_deviations", "cross_row_ties", "constant", "n255", "n256",
        "two_replicates", "continuous", "bernoulli_n700", "poisson_n700"])
    def test_bootstrap_utilities_are_rc_utilities_bitwise(self, case):
        # replicate ranks from one sort of mean +- dev, and their utilities,
        # equal those of the formed (n, n_boot + 1) matrix, byte for byte;
        # at n = 700 a Bernoulli or Poisson(2) y has tie groups of hundreds
        # of rows, which the product counts row by row
        rng = np.random.default_rng(len(case))
        n = {"n255": 255, "n256": 256, "bernoulli_n700": 700,
             "poisson_n700": 700}.get(case, 60)
        n_boot = 2 if case == "two_replicates" else 150
        y = rng.integers(0, 5, size=n).astype(float)
        if case == "bernoulli_n700":
            y = rng.integers(0, 2, size=n).astype(float)
        elif case == "poisson_n700":
            y = rng.poisson(2.0, size=n).astype(float)
        if case == "zero_deviations":  # mean 0 exactly: a_i = b_i at 0
            x = rng.integers(-3, 4, size=n).astype(float)
            x[-1] = -x[:-1].sum()
            assert (x == 0).sum() > 1 and x.mean() == 0.0
        elif case == "cross_row_ties":  # a symmetric sample: a_i = b_k
            half = rng.integers(1, 6, size=n // 2).astype(float)
            x = rng.permutation(np.concatenate([half, -half]))
        elif case == "constant":
            x = np.full(n, 0.1)
        elif case == "continuous":
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
        else:
            x = rng.standard_normal(n)
            x[::4] = 0.5
        _assert_bootstrap_matches_formed(y, x, n_boot, seed=len(case))

    @pytest.mark.parametrize("case", ["bernoulli", "cross_row_ties",
                                      "continuous"])
    def test_bootstrap_on_the_product_path_bitwise(self, monkeypatch, case):
        # every y, tied or not, takes one product for x and all replicates
        rng = np.random.default_rng(len(case))
        n = 50
        y = rng.integers(0, 2, size=n).astype(float)
        x = rng.standard_normal(n)
        if case == "cross_row_ties":
            x = np.round(x - x.mean(), 1)
        elif case == "continuous":
            y = rng.standard_normal(n)
        calls = []

        def product(*args):
            calls.append(args[3].shape)
            return empirical.dominance_counts_choice(*args)

        monkeypatch.setattr(rc_module, "dominance_counts_choice", product)
        _assert_bootstrap_matches_formed(y, x, 150, seed=len(case))
        assert calls == [(n, 150)]

    @pytest.mark.parametrize("width", [64, 128])
    def test_count_chunks_equal_one_chunk_bitwise(self, monkeypatch, width):
        # 300 columns at n = 50: one chunk at the real budget; 64- or
        # 128-column chunks with a ragged last one under a shrunk budget
        rng = np.random.default_rng(width)
        n, p = 50, 300
        y = rng.integers(0, 3, size=n).astype(float)
        x = rng.standard_normal((n, p))
        x[:, 1::3] = rng.integers(0, 4, size=(n, p // 3))
        whole = rc_utilities(y, x)
        monkeypatch.setattr(empirical, "_CELLS", n * width)
        assert rc_utilities(y, x).tobytes() == whole.tobytes()
        assert rc_utilities(y, np.asfortranarray(x)).tobytes() == \
            whole.tobytes()

    def test_traced_peak_independent_of_p(self):
        # numpy reports its buffers to tracemalloc; x and the result aside,
        # the pass holds a chunk's arrays, not arrays as large as x
        rng = np.random.default_rng(9)
        n = 500
        y = rng.integers(0, 2, size=n).astype(float)
        peaks = {}
        for p in (2000, 8000):
            x = np.asfortranarray(rng.standard_normal((n, p)))
            tracemalloc.start()
            try:
                rc_utilities(y, x)
                peaks[p] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8000] < 1.1 * peaks[2000]

    @pytest.mark.parametrize("n", [2, 37, 200])
    def test_rho_equals_table_oracle_bitwise(self, n):
        # random marginal counts, each joint count between its bounds, as
        # int64 and compact ranks; 1-D counts too, as the pointwise
        # estimator passes them
        rng = np.random.default_rng(n)
        ry = rng.integers(1, n + 1, size=n)
        rx = rng.integers(1, n + 1, size=(n, 5))
        lo = np.maximum(0, rx + ry[:, None] - n)
        c = lo + rng.integers(0, 1 << 30, size=rx.shape) % (
            np.minimum(rx, ry[:, None]) - lo + 1)
        for arg in (rx, rx.astype(np.min_scalar_type(n))):
            assert (_rho_from_counts(c, ry, arg, n).tobytes()
                    == rho_table_oracle(c, ry, arg, n).tobytes())
        assert (_rho_from_counts(c[:, 0], ry, rx[:, 0], n).tobytes()
                == rho_table_oracle(c[:, 0], ry, rx[:, 0], n).tobytes())

    def test_rho_equals_table_oracle_past_2_53(self):
        # n = 100,000: the radicand rx (n+1-rx) ry (n+1-ry) passes 2^53,
        # so it is rounded, once, in both
        n = 100_000
        rng = np.random.default_rng(5)
        ry = rng.integers(1, n + 1, size=4000)
        rx = rng.integers(1, n + 1, size=(4000, 3))
        c = np.minimum(rx, ry[:, None]) // 2
        rad = [int(a) * (n + 1 - int(a)) * int(b) * (n + 1 - int(b))
               for a, b in zip(rx[:, 0], ry)]
        assert max(rad) > 2 ** 53
        assert (_rho_from_counts(c, ry, rx, n).tobytes()
                == rho_table_oracle(c, ry, rx, n).tobytes())

    @pytest.mark.parametrize("p", [1, 30])
    @pytest.mark.parametrize("cells", ["one-column", "odd", "whole"])
    def test_slice_width_leaves_utilities_bitwise(self, monkeypatch, p,
                                                  cells):
        # the reduction's slices: 1 column, 7 columns (30 is no multiple
        # of it), or one slice of every column
        rng = np.random.default_rng(p)
        n = 80
        y = rng.integers(0, 4, size=n).astype(float)
        x = rng.standard_normal((n, p))
        x[:, ::3] = rng.integers(0, 3, size=(n, (p + 2) // 3))
        xb = rng.standard_normal(n)
        xb[::5] = 0.25
        whole = rc_utilities(y, x)
        boot = wild_bootstrap_test(y, xb, n_boot=99, seed=p)
        width = {"one-column": 1, "odd": 7, "whole": 1000}[cells]
        monkeypatch.setattr(rc_module, "_RHO_CELLS", n * width)
        assert rc_module._slice_width(n) == width
        assert rc_utilities(y, x).tobytes() == whole.tobytes()
        assert wild_bootstrap_test(y, xb, n_boot=99, seed=p) == boot
        expected = np.array([rc_utility_oracle(y, x[:, j])
                             for j in range(p)])
        assert rc_utilities(y, x).tobytes() == expected.tobytes()

    def test_bootstrap_traced_peak(self):
        # numpy reports its buffers to tracemalloc: at the benchmark's
        # shape the replicate ranks, one chunk's counts and the reduction's
        # cache-sized slices stay under 2 MB
        rng = np.random.default_rng(11)
        n = 200
        y = rng.standard_normal(n)
        x = rng.standard_normal(n)
        take_a = _rademacher_matrix(11, n, 500)
        tracemalloc.start()
        try:
            _bootstrap_utilities(y, x, take_a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, value):
        with pytest.raises(InvalidInput, match="threshold must be finite"):
            UtilityThreshold(value)

    @pytest.mark.parametrize("value", ["a", None, True])
    def test_non_number_threshold_rejected(self, value):
        with pytest.raises(InvalidInput, match="threshold must be a number"):
            UtilityThreshold(value)

    @pytest.mark.parametrize("d", [0, 2.5, True, "3"])
    def test_budget_is_an_integer_at_least_one(self, d):
        with pytest.raises(InvalidInput, match="top-d budget"):
            TopD(d)

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
