import hashlib
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import rankscreen
from rankscreen import empirical
from rankscreen.empirical import (
    _count_columns,
    as_finite_vector,
    dominance_counts_choice,
    dominance_counts_matrix,
    leq_counts,
    leq_counts_choice,
    leq_counts_matrix,
    quantiles,
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
    assert mat.dtype == np.min_scalar_type(x.shape[0])
    assert mat.shape == x.shape
    assert np.array_equal(mat, dominance_counts_oracle(y, x))


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
        assert mat.dtype == np.uint8
        assert np.array_equal(mat, expected)
        assert np.array_equal(leq_counts(x[:, 3]), expected[:, 3])


def _chosen(a, b, take_a):
    """The matrix `leq_counts_choice` ranks without forming it."""
    return np.where(take_a, a[:, None], b[:, None])


def _responses(n):
    """A continuous, a Bernoulli and a Poisson response of length n."""
    rng = np.random.default_rng(n)
    return (rng.standard_normal(n), rng.integers(0, 2, size=n).astype(float),
            rng.poisson(2.0, size=n).astype(float))


def _assert_choice_counts(monkeypatch, a, b, take_a):
    """`dominance_counts_choice` equals the kernel on the formed matrix,
    behind a tied first column, for each response of `_responses`, in blocks
    of the default height, of one row and of 7 rows (n = 255, 256 and 300
    are no multiple of 7)."""
    n = a.size
    first = np.random.default_rng(n).integers(0, 6, size=n).astype(float)
    x = np.c_[first, _chosen(a, b, take_a)]
    for y in _responses(n):
        expected = dominance_counts_matrix(y, x)
        for rows in (None, 1, 7):
            with monkeypatch.context() as patch:
                if rows:
                    patch.setattr(empirical, "_CHOICE_ROWS", rows)
                counts = dominance_counts_choice(y, a, b, take_a, first)
            assert counts.dtype == np.min_scalar_type(n)
            assert np.array_equal(counts, expected)


_SIZES = [(1, 1), (2, 3), (17, 2), (255, 40), (256, 40), (300, 7)]


class TestLeqCountsChoice:
    """`leq_counts_choice` and `dominance_counts_choice` against the ranks
    and joint counts of the formed matrix."""

    @pytest.mark.parametrize("n, m", _SIZES)
    def test_equals_ranks_of_the_formed_matrix(self, monkeypatch, n, m):
        rng = np.random.default_rng(n * m)
        a = rng.integers(-4, 5, size=n).astype(float)
        a[::3] = rng.standard_normal(a[::3].size)
        b = -a  # cross-row ties a_i = b_k, and a_i = b_i where a_i = 0
        b[1::4] = a[1::4]
        take_a = rng.integers(0, 2, size=(n, m)).astype(bool)
        ranks = leq_counts_choice(a, b, take_a)
        assert ranks.dtype == np.min_scalar_type(n)
        assert np.array_equal(ranks, leq_counts_matrix(_chosen(a, b, take_a)))
        _assert_choice_counts(monkeypatch, a, b, take_a)

    @pytest.mark.parametrize("n, m", _SIZES)
    def test_mirrored_values(self, monkeypatch, n, m):
        # the bootstrap's a = mean + dev, b = mean - dev: nested intervals
        # take one product per block, and a block with a tied deviation
        # (here the three rows of x = 0.5) a second one
        rng = np.random.default_rng(n + m)
        take_a = rng.integers(0, 2, size=(n, m)).astype(bool)
        x = rng.standard_normal(n)
        for ties in (False, True):
            x[:3] = 0.5 if ties else x[:3]
            mean = x.mean()
            dev = x - mean
            _assert_choice_counts(monkeypatch, dev + mean, mean - dev, take_a)

    def test_signed_zeros_tie(self, monkeypatch):
        a = np.array([0.0, -0.0, 1.0, -1.0])
        b = np.array([-0.0, 1.0, 0.0, 2.0])
        take_a = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]],
                          dtype=bool)
        assert np.array_equal(leq_counts_choice(a, b, take_a),
                              leq_counts_matrix(_chosen(a, b, take_a)))
        _assert_choice_counts(monkeypatch, a, b, take_a)

    def test_constant_and_one_sided_columns(self, monkeypatch):
        a = np.full(6, 2.5)
        take_a = np.zeros((6, 4), dtype=bool)
        take_a[:, 1] = True
        ranks = leq_counts_choice(a, a.copy(), take_a)
        assert np.array_equal(ranks, np.full((6, 4), 6))
        _assert_choice_counts(monkeypatch, a, a.copy(), take_a)

    def test_unselected_values_need_not_be_finite(self, monkeypatch):
        a = np.array([1.0, np.inf, 3.0, np.nan])
        b = np.array([np.nan, 0.5, -np.inf, 2.0])
        take_a = np.array([[1, 1], [0, 0], [1, 1], [0, 0]], dtype=bool)
        expected = leq_counts_matrix(_chosen(a, b, take_a))
        assert np.array_equal(leq_counts_choice(a, b, take_a), expected)
        _assert_choice_counts(monkeypatch, a, b, take_a)

    def test_float64_product(self, monkeypatch):
        # the product's type past 2^24 rows, tried at n = 300
        rng = np.random.default_rng(3)
        x = rng.standard_normal(300)
        take_a = rng.integers(0, 2, size=(300, 9)).astype(bool)
        monkeypatch.setattr(empirical, "_FLOAT32_ROWS", 300)
        _assert_choice_counts(monkeypatch, x, -x, take_a)
        _assert_choice_counts(monkeypatch, x, rng.permutation(x), take_a)

    def test_traced_peak_beyond_the_output_is_not_quadratic(self):
        # an (n, n) float32 array would add 16 MB at n = 2000 and an (n, n)
        # bool array 4 MB; the working arrays are O(n m) plus one block of
        # _CHOICE_ROWS rows, O(n), so the peak beyond the output grows at
        # most like n (it read 0.72 MB at n = 500 and 2.63 MB at n = 2000)
        peaks = []
        for n in (500, 2000):
            rng = np.random.default_rng(n)
            y, x = rng.standard_normal((2, n))
            take_a = rng.integers(0, 2, size=(n, 50)).astype(bool)
            tracemalloc.start()
            try:
                out = dominance_counts_choice(y, x, -x, take_a, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append(peak - out.nbytes)
        assert peaks[1] < 4 * peaks[0]
        assert peaks[1] < 3 * 2 ** 20


_CHOICE_AT_TEST_BOOT_SHAPE = """
import hashlib
import numpy as np
from rankscreen.empirical import dominance_counts_choice
rng = np.random.default_rng(7)
y, x = rng.standard_normal((2, 200))
take_a = rng.integers(0, 2, size=(200, 500)).astype(bool)
dev = x - x.mean()
counts = dominance_counts_choice(y, dev + x.mean(), x.mean() - dev, take_a, x)
print(hashlib.sha256(counts.tobytes()).hexdigest())
"""


def test_choice_counts_on_any_number_of_blas_threads():
    # At the bootstrap's n = 200, n_boot = 500, the four blocks' products
    # take 0.8 to 6.2 million multiply-adds each.  OpenBLAS runs a product
    # on one thread only up to 65536 * 4 of them, so the second run splits
    # every product between two threads.  Its sums are exact integers, so
    # the bytes match the one-thread run and the kernel.
    src = str(pathlib.Path(rankscreen.__file__).parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        digests.append(subprocess.run(
            [sys.executable, "-c", _CHOICE_AT_TEST_BOOT_SHAPE], env=env,
            check=True, capture_output=True, text=True).stdout.strip())
    rng = np.random.default_rng(7)
    y, x = rng.standard_normal((2, 200))
    take_a = rng.integers(0, 2, size=(200, 500)).astype(bool)
    dev = x - x.mean()
    formed = np.c_[x, _chosen(dev + x.mean(), x.mean() - dev, take_a)]
    kernel = dominance_counts_matrix(y, formed)
    assert digests == [hashlib.sha256(kernel.tobytes()).hexdigest()] * 2


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


def _brute_counts(y, x, rows):
    """``#{k : y_k <= y_i and x[k, j] <= x[i, j]}`` at the given rows i of
    the (n, p) array x, every pair compared; weak ranks where y is None."""
    ley = True if y is None else y[None, :] <= y[rows, None]
    return np.stack([np.count_nonzero(ley & (col[None, :] <= col[rows, None]),
                                      axis=1) for col in x.T], axis=1)


_COUNTERS = ["leq_counts", "leq_counts_matrix", "leq_counts_choice",
             "dominance_counts_matrix", "dominance_counts_choice",
             "_count_columns"]


def _counted(name, y, x, take_a):
    """``(counts, y or None, formed x)`` of every array the counting
    function returns on y, x and the choice ``x[:, 0]`` or ``-x[:, 0]``."""
    a, b = x[:, 0], -x[:, 0]
    chosen = _chosen(a, b, take_a)
    if name == "leq_counts":
        return [(leq_counts(x[:, 0]), None, x[:, :1])]
    if name == "leq_counts_matrix":
        return [(leq_counts_matrix(x), None, x)]
    if name == "leq_counts_choice":
        return [(leq_counts_choice(a, b, take_a), None, chosen)]
    if name == "dominance_counts_matrix":
        return [(dominance_counts_matrix(y, x), y, x)]
    if name == "dominance_counts_choice":
        return [(dominance_counts_choice(y, a, b, take_a, x[:, 1]), y,
                 np.c_[x[:, 1], chosen])]
    out = []

    def kept(rx, c):  # one column per chunk, all in this process
        j = len(out) // 2
        out.extend([(rx, None, x[:, j:j + 1]), (c, y, x[:, j:j + 1])])
        return np.empty(rx.shape[1])

    _count_columns(y, x, kept)
    return out


@pytest.mark.parametrize("n", [255, 256, 65536])
@pytest.mark.parametrize("name", _COUNTERS)
def test_counts_in_the_smallest_type_that_holds_n(monkeypatch, name, n):
    # every counting function returns np.min_scalar_type(n), in input row
    # order, equal to the pair enumeration at every row up to n = 256 and
    # at every 257th row and the last past uint16; the constant column
    # brings a count to n, which would wrap a type one size smaller.  The
    # kernel takes histogram steps on a 3-level y and the product small tie
    # groups, the cheap case of each at n = 65536
    monkeypatch.setattr(empirical, "_STEP", 1)
    monkeypatch.setattr(empirical, "_CELLS", n)  # _count_columns: 1 column
    rng = np.random.default_rng(n)
    levels = n // 4 if name == "dominance_counts_choice" else 3
    y = rng.integers(0, levels, size=n).astype(float)
    x = np.c_[rng.standard_normal(n), np.zeros(n)]
    take_a = rng.integers(0, 2, size=(n, 2)).astype(bool)
    rows = np.arange(n) if n <= 256 else np.r_[:n:257, n - 1]
    results = _counted(name, y, x, take_a)
    assert len(results) == (4 if name == "_count_columns" else 1)
    top = 0
    for counts, yy, formed in results:
        assert counts.dtype == np.min_scalar_type(n)
        counts = counts.reshape(n, -1)
        assert np.array_equal(counts[rows], _brute_counts(yy, formed, rows))
        top = max(top, counts.max())
    assert top == n


class TestCompactAccumulator:
    """The sweep accumulates in ``np.min_scalar_type(n)`` and returns that
    type; counts reach n exactly at each dtype boundary."""

    @pytest.mark.parametrize("n", [255, 256])
    def test_constant_margins_reach_n(self, n):
        y = np.full(n, 2.5)
        x = np.full((n, 2), -1.0)
        for arg in (x, leq_counts_matrix(x)):
            mat = dominance_counts_matrix(y, arg)
            assert mat.dtype == np.min_scalar_type(n)
            assert np.all(mat == n)

    @pytest.mark.parametrize("n", [255, 256])
    def test_float_and_rank_input_match_oracle(self, n):
        rng = np.random.default_rng(n)
        y = rng.integers(0, 2, size=n).astype(float)
        x = rng.standard_normal((n, 3))
        x[:, 1] = rng.integers(0, 3, size=n)
        x[:, 2] = 0.0
        ranks = leq_counts_matrix(x)
        assert ranks.dtype == np.min_scalar_type(n)
        mat = dominance_counts_matrix(y, x)
        assert mat.dtype == np.min_scalar_type(n)
        assert np.array_equal(dominance_counts_matrix(y, ranks), mat)
        for j in range(3):
            assert np.array_equal(mat[:, j],
                                  dominance_counts_oracle(y, x[:, j]))

    def test_counts_past_uint16(self):
        # 65,536 does not fit uint16: the accumulator and the ranks are
        # uint32, and every count is n
        n = 65536
        y = np.zeros(n)
        x = np.ones((n, 1))
        ranks = leq_counts_matrix(x)
        assert ranks.dtype == np.uint32
        for arg in (x, ranks):
            mat = dominance_counts_matrix(y, arg)
            assert mat.dtype == np.uint32
            assert np.all(mat == n)


def _tie_groups(y):
    """First sorted position, size and histogram-step flag of every y-tie
    group, by the kernel's cost rule."""
    n = y.size
    _, first, size = np.unique(np.sort(y), return_index=True,
                               return_counts=True)
    step = (size > 1) & (size * (n - first)
                         > empirical._GROUP_COST * (2 * n - first))
    return first, size, step


def _grouped_y(rng, sizes):
    """A shuffled y of tie groups with the given sizes, one value each, in
    increasing order: a size of 1 is a row of its own."""
    y = np.repeat(np.arange(len(sizes), dtype=float), sizes)
    return rng.permutation(y)


def _mixed_x(rng, n, p=5):
    x = rng.standard_normal((n, p))
    x[:, 1] = rng.integers(0, 3, size=n)
    x[:, 2] = 0.0
    return x


class TestTieGroupSteps:
    """Large y-tie groups are added in one histogram step; the counts equal
    the double loop's whichever steps the cost rule picks."""

    @pytest.fixture(params=["rule", "every-group"])
    def cost(self, request, monkeypatch):
        if request.param == "every-group":
            monkeypatch.setattr(empirical, "_GROUP_COST", 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_groups_on_both_sides_of_the_rule(self, seed):
        rng = np.random.default_rng(seed)
        # a large group at the start, in the middle and at the end, a small
        # one and rows of their own in between
        sizes = [80] + [1] * 60 + [60, 4] + [1] * 10 + [86]
        y = _grouped_y(rng, sizes)
        first, size, step = _tie_groups(y)
        tied = size > 1
        assert step[tied].any() and not step[tied].all()
        assert step[first == 0] and step[first + size == y.size]
        assert step[(first > 0) & (first + size < y.size)].any()
        _assert_kernel_matches_oracle(y, _mixed_x(rng, y.size))

    @pytest.mark.parametrize("n", [40, 200])
    def test_one_group_of_all_rows(self, cost, n):
        rng = np.random.default_rng(n)
        y = np.full(n, -1.5)
        assert _tie_groups(y)[2].all()
        x = _mixed_x(rng, n)
        _assert_kernel_matches_oracle(y, x)
        assert np.array_equal(dominance_counts_matrix(y, x),
                              leq_counts_matrix(x))

    @pytest.mark.parametrize("n", [255, 256])
    def test_accumulator_boundary_float_and_rank_input(self, cost, n):
        rng = np.random.default_rng(n)
        y = _grouped_y(rng, [n // 3] + [1] * (n - 2 * (n // 3))
                       + [n // 3])
        assert _tie_groups(y)[2].any()
        x = _mixed_x(rng, n)
        ranks = leq_counts_matrix(x)
        mat = dominance_counts_matrix(y, x)
        assert mat.max() == n
        # compact ranks are the kernel's own; int64 ones are ranked again
        for arg in (ranks, ranks.astype(np.int64)):
            assert np.array_equal(dominance_counts_matrix(y, arg), mat)
        _assert_kernel_matches_oracle(y, x)

    @pytest.mark.parametrize("dtype, high", [
        (np.uint8, 200), (np.uint16, 1000),  # values past n: ranked
        (np.uint64, 121),  # values within n, not safely cast to intp
    ])
    def test_unsigned_input(self, cost, dtype, high):
        rng = np.random.default_rng(4)
        n = 120
        y = rng.integers(0, 2, size=n).astype(float)
        assert _tie_groups(y)[2].all()
        x = rng.integers(0, high, size=(n, 4)).astype(dtype)
        x[0] = high - 1
        mat = dominance_counts_matrix(y, x)
        assert np.array_equal(mat, dominance_counts_matrix(y, x.astype(float)))
        _assert_kernel_matches_oracle(y, x)


class TestRowPassesPastAByte:
    """Row passes add their comparison bytes to the counts in place: a
    uint8 add up to n = 255, a widening add into uint16 past it.  Counts
    equal the all-pairs enumeration on both sides of the boundary, also
    after more than 255 passes, which would wrap a byte."""

    NS = [255, 256, 511, 512, 600]

    def _check(self, y, rng):
        x = _mixed_x(rng, y.size)
        for arg in (x, leq_counts_matrix(x)):
            _assert_kernel_matches_oracle(y, arg)
        assert dominance_counts_matrix(y, x).max() == y.size  # constant

    @pytest.mark.parametrize("n", NS)
    def test_continuous_response(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n)
        assert not _tie_groups(y)[2].any()
        self._check(y, rng)

    @pytest.mark.parametrize("n", NS)
    def test_small_groups_across_byte_limits(self, n):
        # every row is a pass; a group of 4 spans each multiple of 255
        rng = np.random.default_rng(n + 1)
        y = np.arange(n, dtype=float)
        for edge in range(255, n, 255):
            y[edge - 2:edge + 2] = y[edge - 2]
        first, size, step = _tie_groups(y)
        assert not step.any()
        assert (n <= 255) or ((first < 255) & (first + size > 255)).any()
        self._check(rng.permutation(y), rng)

    @pytest.mark.parametrize("n", NS)
    def test_histogram_steps_between_passes(self, n):
        # a large group at the start and one in the middle, with rows and
        # a small group of their own between and after them: more than 255
        # passes past n = 500
        rng = np.random.default_rng(n + 2)
        g = n // 5
        rest = n - 2 * g - 3
        sizes = [g] + [1] * (rest // 2) + [g, 3] + [1] * (rest - rest // 2)
        y = _grouped_y(rng, sizes)
        first, size, step = _tie_groups(y)
        assert step[first == 0] and step.sum() == 2
        passes = size[~step].sum()
        assert passes == n - 2 * g and (n < 500 or passes > 255)
        self._check(y, rng)


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


class TestQuantiles:
    """`quantiles` keeps the bits of np.quantile and np.median."""

    @staticmethod
    def _samples():
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 8, 9, 40, 41):
            yield rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            yield rng.integers(-2, 3, size=n).astype(float)  # tied
            yield rng.integers(0, 9, size=(n, 3))  # columns of ranks

    def test_linear_quantiles(self):
        probs = np.r_[0.0, 0.25, 1 / 3, 0.5, 0.75, 0.9, 1.0]
        for values in self._samples():
            got = quantiles(values, probs)
            want = np.quantile(values, probs, axis=0)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_medians(self):
        for values in self._samples():
            got = np.asarray(quantiles(values))
            want = np.asarray(np.median(values, axis=0))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_even_median_is_the_mean_of_the_middle_pair(self):
        # (a + b) / 2 here, a + (b - a) / 2 by the quantile rule
        values = np.array([-0.9, -3.0])
        assert quantiles(values) == -1.95 == np.median(values)
        assert quantiles(values, [0.5])[0] == np.quantile(values, 0.5)
        assert quantiles(values, [0.5])[0] == -1.9500000000000002
