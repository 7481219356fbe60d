import numpy as np
import pytest

from rankscreen.empirical import (
    as_finite_vector,
    dominance_counts_matrix,
    leq_counts,
    leq_counts_matrix,
)
from rankscreen.errors import InvalidInput
from rankscreen.rc_screen import _rho_from_counts, rc_utilities, robust_corr

from oracles import dominance_counts_oracle, ecdf_count_oracle


def _kernel(y, x):
    """Joint counts of one column: the p = 1 call of the batch kernel."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return dominance_counts_matrix(y, x[:, None])[:, 0]


def _assert_kernel_matches_oracle(y, x):
    mat = dominance_counts_matrix(y, x)
    assert mat.dtype == np.int64
    assert mat.shape == x.shape
    for j in range(x.shape[1]):
        assert np.array_equal(mat[:, j], dominance_counts_oracle(y, x[:, j]))


class TestEcdfBuild:
    def test_raw_rank_definition(self):
        counts = leq_counts(np.array([1.0, 2.0, 3.0, 4.0]))
        assert counts[1] / 4 == 0.5

    def test_below_minimum(self):
        # a query point below every sample value counts nothing, and the
        # pointwise estimator returns its documented 0 there
        assert robust_corr(4.9, 1.0, [5.0, 6.0], [1.0, 2.0]) == 0.0

    def test_unsorted_input_matches_brute_force(self):
        sample = np.array([3.0, 1.0, 2.0])
        counts = leq_counts(sample)
        assert counts.tolist() == [ecdf_count_oracle(sample, t)
                                   for t in sample]
        assert counts[2] / 3 == pytest.approx(2 / 3)

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInput):
            as_finite_vector([])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            as_finite_vector([1.0, np.nan])
        with pytest.raises(InvalidInput):
            as_finite_vector([1.0, np.inf])

    def test_values_sorted_and_right_continuous(self):
        rng = np.random.default_rng(3)
        sample = rng.standard_normal(40)
        counts = leq_counts(sample)
        order = np.argsort(sample)
        assert np.all(np.diff(counts[order]) >= 0)  # nondecreasing
        # right-continuity: the count at a jump point equals the count just
        # after it, since no sample value lies strictly in between
        for t, count in zip(sample[:10], counts[:10]):
            assert count == ecdf_count_oracle(sample, t)
            assert count == ecdf_count_oracle(sample, np.nextafter(t, np.inf))


class TestRescaledEval:
    def test_rescale_at_maximum(self):
        counts = leq_counts(np.array([1.0, 2.0, 3.0, 4.0]))
        assert counts[3] / (4 + 1) == 0.8

    def test_rescale_is_linear(self):
        counts = leq_counts(np.array([1.0, 2.0, 3.0, 4.0]))
        assert counts[1] / (4 + 1) == pytest.approx(0.4)

    def test_rescale_n9(self):
        counts = leq_counts(np.arange(9, dtype=float))
        assert counts[0] / (9 + 1) == 0.1

    def test_rescaled_stays_inside_open_interval(self):
        rng = np.random.default_rng(11)
        sample = rng.standard_normal(25)
        vals = leq_counts(sample) / (sample.size + 1)
        assert np.all(vals > 0)
        assert np.all(vals < 1)


class TestJointEval:
    def test_one_dominated_pair(self):
        counts = _kernel([1, 2], [1, 2])
        assert counts[0] / 2 == 0.5

    def test_no_dominated_pair(self):
        # each pair dominates only itself
        assert _kernel([1, 2], [2, 1]).tolist() == [1, 1]

    def test_random_pairs_match_double_loop(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(6)
        x = rng.standard_normal(6)
        counts = _kernel(y, x)
        for i, (yi, xi) in enumerate(zip(y, x)):
            expected = 0
            for yk, xk in zip(y, x):
                if yk <= yi and xk <= xi:
                    expected += 1
            assert counts[i] == expected

    def test_bounded_by_marginals(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(30)
        x = rng.standard_normal(30)
        counts = _kernel(y, x)
        assert np.all(counts <= np.minimum(leq_counts(y), leq_counts(x)))
        assert np.all(counts >= 1)


class TestJointEvalAll:
    def test_single_point(self):
        assert _kernel([3.0], [7.0]).tolist() == [1]

    def test_comonotone_sorted_dominance(self):
        n = 12
        idx = np.arange(1, n + 1, dtype=float)
        assert _kernel(idx, idx).tolist() == list(range(1, n + 1))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fast_path_equals_double_loop_exactly(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(50)
        x = rng.standard_normal(50)
        assert np.array_equal(_kernel(y, x), dominance_counts_oracle(y, x))

    @pytest.mark.parametrize("seed", [7, 8])
    def test_fast_path_with_heavy_ties(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 4, size=40).astype(float)
        x = rng.integers(0, 3, size=40).astype(float)
        assert np.array_equal(_kernel(y, x), dominance_counts_oracle(y, x))

    def test_matches_pointwise_joint_eval(self):
        # the batch counts and the pointwise mask counts of robust_corr give
        # the same correlation at every sample pair
        rng = np.random.default_rng(9)
        y = rng.standard_normal(20)
        x = rng.standard_normal(20)
        rho = _rho_from_counts(_kernel(y, x), leq_counts(y), leq_counts(x),
                               y.size)
        single = [robust_corr(yi, xi, y, x) for yi, xi in zip(y, x)]
        assert rho.tolist() == single


class TestBatchCounts:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_matrix_counts_equal_per_column_fenwick(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(35)
        x = rng.standard_normal((35, 7))
        x[:, 3] = rng.integers(0, 3, size=35)  # ties
        mat = dominance_counts_matrix(y, x)
        for j in range(7):
            assert np.array_equal(mat[:, j], _kernel(y, x[:, j]))
        _assert_kernel_matches_oracle(y, x)

    def test_leq_counts_weak_inequality(self):
        col = np.array([2.0, 1.0, 2.0, 5.0])
        assert leq_counts(col).tolist() == [3, 1, 3, 4]
        mat = leq_counts_matrix(col[:, None])
        assert mat[:, 0].tolist() == [3, 1, 3, 4]

    def test_leq_counts_matrix_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(5)
        x = rng.integers(-2, 3, size=(40, 6)).astype(float)
        x[:, 0] = rng.standard_normal(40)
        x[:, 1] = 0.0
        x[::2, 2] = -0.0
        expected = (x[None, :, :] <= x[:, None, :]).sum(axis=1)
        mat = leq_counts_matrix(x)
        assert mat.dtype == np.int64
        assert np.array_equal(mat, expected)
        assert np.array_equal(leq_counts(x[:, 3]), expected[:, 3])


class TestKernelAgainstOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_ties_in_both_margins(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 5, size=45).astype(float)
        x = rng.integers(0, 4, size=(45, 6)).astype(float)
        _assert_kernel_matches_oracle(y, x)

    def test_bernoulli_response(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, size=60).astype(float)
        x = rng.standard_normal((60, 5))
        x[:, 4] = rng.integers(0, 2, size=60)
        _assert_kernel_matches_oracle(y, x)

    def test_single_column(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(30)
        x = rng.standard_normal((30, 1))
        _assert_kernel_matches_oracle(y, x)

    @pytest.mark.parametrize("y, x", [
        ([0.0, 1.0], [[0.0, 1.0, 5.0], [1.0, 0.0, 5.0]]),
        ([1.0, 1.0], [[2.0, 0.0, 3.0], [1.0, 0.0, 4.0]]),
    ])
    def test_two_rows(self, y, x):
        _assert_kernel_matches_oracle(np.array(y), np.array(x))


class TestRankInvariance:
    @pytest.mark.parametrize("transform", [np.exp, lambda v: v ** 3])
    def test_raw_eval_invariant_at_sample_points(self, transform):
        rng = np.random.default_rng(21)
        sample = rng.standard_normal(40)
        assert np.array_equal(leq_counts(sample),
                              leq_counts(transform(sample)))

    @pytest.mark.parametrize("transform", [np.exp, lambda v: v ** 3])
    def test_joint_counts_invariant(self, transform):
        rng = np.random.default_rng(22)
        y = rng.standard_normal(30)
        x = rng.standard_normal(30)
        assert np.array_equal(_kernel(y, x),
                              _kernel(transform(y), transform(x)))


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            robust_corr(1, 1, [1, 2, 3], [1, 2])
        with pytest.raises(InvalidInput):
            rc_utilities([1, 2, 3], np.ones((2, 1)))

    def test_immutable(self):
        # the kernel sorts copies; its inputs are left as they were
        rng = np.random.default_rng(23)
        y = rng.standard_normal(15)
        x = rng.standard_normal((15, 3))
        y0, x0 = y.copy(), x.copy()
        dominance_counts_matrix(y, x)
        assert np.array_equal(y, y0)
        assert np.array_equal(x, x0)
