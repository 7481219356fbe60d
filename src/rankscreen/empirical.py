"""Integer rank counts shared by all screening estimators.

Every correlation-type quantity downstream reduces to three integer counts
per sample point: the marginal weak-rank counts ``#{k : y_k <= y_i}`` and
``#{k : x_k <= x_i}`` and the joint dominance count
``#{k : y_k <= y_i, x_k <= x_i}``.  This module computes those counts
exactly.  No count exceeds n, so every counting function returns them in
``np.min_scalar_type(n)`` (uint8 up to n = 255, uint16 up to 65,535), in
input row order.  `dominance_counts_matrix` is the joint-count kernel of
every screening path, and a single column is its p = 1 call.  The kernel
only compares values, so any input with the same per-column ``<=`` order
gives the same counts: the screening utilities pass the weak ranks.
The ``n/(n+1)`` boundary rescale of the empirical CDFs,
``(n/(n+1)) * (count/n) == count/(n+1)``, is applied where the counts are
turned into correlations (``rc_screen._rho_from_counts``).

The kernel adds the comparisons of one row at a time, except that a large
y-tie group is added in one step, from the cumulative histogram of its
weak ranks.  A discrete response (Bernoulli, Poisson) thus costs a few
such steps, not one pass per row.  A row pass compares into one reused
bool buffer and adds its bytes to the counts in place, so no pass
allocates an (n, p) temporary.

`_count_columns` counts a wide x a chunk of columns at a time, so the
working arrays beyond x stay O(n * chunk) whatever p is, and reduces each
chunk's counts to one result per column for the RC and Kendall utilities.
Forked workers map all but the first of its contiguous runs of chunks.
Pearson screening streams the same chunks (`column_chunks`).

The bootstrap's sign-flip replicates are counted without forming them.
Row i of every replicate holds one of two values, ``a_i`` or ``b_i``, so
`leq_counts_choice` ranks them all from one sort of those 2n values, and
`dominance_counts_choice` takes their joint counts as an exact float
product of small integer matrices with the selection mask.

`quantiles` gives numpy's medians and linear quantiles bit for bit from one
sort: `np.median` and `np.quantile` import numpy.ma, which costs a cold
command about 7 ms.
"""

from __future__ import annotations

import numpy as np

from . import workers
from .errors import InvalidInput

__all__ = [
    "leq_counts",
    "leq_counts_matrix",
    "leq_counts_choice",
    "dominance_counts_matrix",
    "dominance_counts_choice",
]

# Cells of one chunk's (n, w) working arrays; the width w is a multiple of
# _STEP columns, and at least _STEP.
_CELLS = 2 ** 17
_STEP = 64

# A y-tie group of g rows from sorted position s is added in one histogram
# step, not row by row, when its g row passes, g (n - s) cells per column,
# exceed this many times the step's 2n - s cells per column (its cumulative
# histogram and its reads).  Of 4, 8, 16 and 32, 16 is the smallest that was
# nowhere slower than row passes alone (2-core Xeon, numpy 2.4), on
# Bernoulli, Poisson, rounded and continuous responses at n = 60 to 500; 8
# was faster at n = 500 but up to 1.7x slower at n = 60 and 100.
_GROUP_COST = 16

# The least work, in n * p cells of x, worth a process of its own in
# `_count_columns`.  Speed-up of `rc_utilities` on two processes over one
# (2-core Xeon VM, numpy 2.4; median of three runs, each the median of 11
# alternating calls; y Bernoulli(0.5) or normal, x normal):
#
#     n * p        ~1e5   ~2e5   ~4e5   ~8e5   ~1.6e6
#     n = 200  tied  0.73   1.02   1.22   1.21   1.63   (n * p from 8e4)
#              cont  0.65   1.02   1.32   1.56   1.62
#     n = 500  tied  0.74   0.92   1.15   1.26   1.57
#              cont  1.04   1.37   1.63   1.54   1.70
#     n = 1000 tied  0.68   0.93   1.20   1.56   1.68
#              cont  1.12   1.39   1.58   1.78   1.61
#
# Two processes break even at about 2.5e5 cells (a tied y, whose histogram
# steps are cheapest per cell) and 1e5 to 1.6e5 (a continuous one); the
# n = 200 tied row moved from 1.2e5 to 1e6 between runs.  Two processes
# start at 2 * _COUNT_CELLS, twice the tied break-even.
_COUNT_CELLS = 2 ** 18

# Rows of one block of `dominance_counts_choice`, whose operands are
# (h, n + 1).  On `test --all` at n = 200, n_boot = 500, blocks of 50 to 100
# rows were level.  Per call at n_boot = 500, 64 rows against the 2^14-cell
# blocks tried first (8 rows at n = 2000, 4 at n = 4000) took 6.6 against
# 9.8 ms at n = 1000 and 23 against 45 ms at n = 2000 (2-core Xeon, OpenBLAS
# 0.3.31, numpy 2.4): a short block is a thin, memory-bound product.
_CHOICE_ROWS = 64

# `dominance_counts_choice` multiplies in float32 below this many rows, where
# every integer it forms (at most n in magnitude) is exact, and in float64
# from it on.
_FLOAT32_ROWS = 2 ** 24


def as_finite_vector(sample, name: str = "sample") -> np.ndarray:
    """Coerce to a 1-D float array, rejecting empty or non-finite input."""
    arr = np.asarray(sample, dtype=float).ravel()
    if arr.size == 0:
        raise InvalidInput(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} contains non-finite values")
    return arr


def as_finite_pair(a, b, names=("y_col", "x_col"), min_size: int = 1):
    """Paired samples as finite float vectors of one length >= min_size."""
    a, b = as_finite_vector(a, names[0]), as_finite_vector(b, names[1])
    if a.size != b.size:
        raise InvalidInput(f"{names[0]} and {names[1]} lengths differ "
                           f"({a.size} vs {b.size})")
    if a.size < min_size:
        raise InvalidInput(f"need at least {min_size} observations")
    return a, b


def quantiles(values, probs=None):
    """``np.quantile(values, probs, axis=0)`` (numpy's default linear rule)
    or, without ``probs``, ``np.median(values, axis=0)``, bit for bit on
    finite values, from one sort (equal zeros of opposite sign may trade
    places, as they do between numpy's own sort and partition).

    At the virtual index ``(n - 1) q`` between sorted neighbours a and b, at
    fraction t, a quantile is ``a + (b - a) t``, or ``b - (b - a) (1 - t)``
    when ``t >= 0.5``; an even-length median is ``(a + b) / 2``, which is
    not that rule at t = 0.5.  numpy's own functions import numpy.ma.
    """
    s = np.sort(np.asarray(values, dtype=float), axis=0)
    n = s.shape[0]
    if probs is None:
        return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2
    at = (n - 1) * np.asarray(probs, dtype=float)
    lo = np.minimum(np.floor(at), n - 1)
    t = (at - lo).reshape(at.shape + (1,) * (s.ndim - 1))
    i = lo.astype(np.intp)
    below, above = s[i], s[np.minimum(i + 1, n - 1)]
    diff = above - below
    return np.where(t >= 0.5, above - diff * (1 - t), below + diff * t)


def _chunk_width(n: int) -> int:
    """Columns per chunk: an (n, w) working array stays near ``_CELLS``
    cells, with w a multiple of ``_STEP`` and at least ``_STEP``."""
    return max(_STEP, _CELLS // n // _STEP * _STEP)


def _finite_chunk(x: np.ndarray, lo: int) -> np.ndarray:
    """Columns ``lo`` to ``lo + w`` of the (n, p) array x, `_chunk_width`
    (n) of them or the rest.  A column that holds NaN or an infinity raises
    InvalidInput, which names the first one's index in x; min and max
    propagate NaN and reach any infinity, so no mask is built."""
    chunk = x[:, lo:lo + _chunk_width(x.shape[0])]
    finite = np.isfinite(chunk.min(axis=0)) & np.isfinite(chunk.max(axis=0))
    if not finite.all():
        raise InvalidInput(
            f"covariate column {lo + np.argmin(finite)} is not finite")
    return chunk


def column_chunks(x: np.ndarray):
    """Yield ``(lo, x[:, lo:lo + w])`` for consecutive chunks of the
    columns of the (n, p) array x, `_chunk_width` (n) columns wide, so that
    the working arrays stay O(n * w) whatever p is.  The first column that
    is not finite raises InvalidInput (`_finite_chunk`)."""
    for lo in range(0, x.shape[1], _chunk_width(x.shape[0])):
        yield lo, _finite_chunk(x, lo)


def leq_counts(col: np.ndarray) -> np.ndarray:
    """``r[i] = #{k : col_k <= col_i}`` for one column."""
    return leq_counts_matrix(np.asarray(col)[:, None])[:, 0]


def leq_counts_matrix(x: np.ndarray) -> np.ndarray:
    """Per-column weak-rank counts ``r[i, j] = #{k : x[k, j] <= x[i, j]}``,
    exact: after one sort of every column, the count at a sorted position
    is one past the last position of its tie group.
    """
    n = x.shape[0]
    order = np.argsort(x, axis=0)
    xs = np.take_along_axis(x, order, axis=0)
    acc = np.min_scalar_type(n)
    counts = np.full(x.shape, n, dtype=acc)
    np.copyto(counts[:-1], np.arange(1, n, dtype=acc)[:, None],
              where=xs[:-1] != xs[1:])
    del xs
    np.minimum.accumulate(counts[::-1], axis=0, out=counts[::-1])
    out = np.empty_like(counts)
    np.put_along_axis(out, order, counts, axis=0)
    return out


def leq_counts_choice(a: np.ndarray, b: np.ndarray,
                      take_a: np.ndarray) -> np.ndarray:
    """Weak-rank counts of the (n, m) matrix x with ``x[i, d] = a[i]`` where
    ``take_a[i, d]`` and ``b[i]`` elsewhere, without forming x: equal to
    ``leq_counts_matrix(x)``.

    Every entry of x is one of the 2n values ``[a; b]``, which are sorted
    once.  In sorted order, the rows of the selection mask
    ``[take_a; ~take_a]`` that come up to the last tie position of a value v
    are the selected entries ``<= v``, so the mask's cumulative sum, read at
    that position, is v's count in every column at once.  Only the selected
    values need to be finite.  O(n log n + n m) time.
    """
    n = a.size
    values = np.concatenate([a, b])
    order = np.argsort(values, kind="stable")
    last = np.searchsorted(values[order], values, side="right") - 1
    cum = np.concatenate([take_a, ~take_a])[order].astype(
        np.min_scalar_type(n))
    np.add.accumulate(cum, axis=0, out=cum)
    # one of the two terms is 0: faster than np.where on small integers
    return cum[last[:n]] * take_a + cum[last[n:]] * ~take_a


def dominance_counts_matrix(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Joint dominance counts of y against every column of x.

    Returns the (n, p) counts
    ``c[i, j] = #{k : y_k <= y_i and x[k, j] <= x[i, j]}``.

    Rows are taken in increasing y order.  Every row from the first member
    s of row k's y-tie group onward has ``y >= y_k``, so row k adds its x
    comparison to exactly those rows: one compare-and-add pass over n - s
    rows.  A tie group of g > 1 rows starting at s whose g passes would
    cost more than one histogram step, ``g (n - s) > _GROUP_COST (2n - s)``,
    is added in that one step instead: the cumulative histogram of the
    group's weak ranks, read at the weak rank of each row from s on, counts
    the group members that row dominates in x.  The steps are chosen once,
    from the tie groups, so a y without a large tie group (a continuous
    one) takes row passes only.

    Only ``<=`` between entries of the same column is used, so x may be
    anything with the same per-column order, such as its weak ranks
    (`leq_counts_matrix`).  Histogram steps use x as its own ranks when it
    is unsigned with no value above n, and rank it once otherwise.  Both
    steps accumulate in the counts' own type.

    A row pass is two ufunc calls on views of buffers made once: its
    comparisons go into one (n, p) bool buffer, whose uint8 view (0 or 1)
    is added in place to the counts.  Up to n = 255 that is a uint8 add;
    past it numpy widens the bytes in its small internal buffers, so no
    pass allocates an (n, p) temporary.  Each pass or step is O(n p) time,
    n passes at most, and memory is O(n p).
    """
    n, p = x.shape
    order = np.argsort(y, kind="stable")
    ys, xs = y[order], x[order]
    start = np.searchsorted(ys, ys, side="left")
    size = np.searchsorted(ys, ys, side="right") - start
    grouped = (size > 1) & (size * (n - start)
                            > _GROUP_COST * (2 * n - start))
    acc = np.min_scalar_type(n)
    counts = np.zeros((n, p), dtype=acc)
    rows = np.flatnonzero(~grouped)
    if rows.size:
        starts = start[rows].tolist()
        rows = rows.tolist()
        le = np.empty((n, p), dtype=bool)
        ones = le.view(np.uint8)
        for k, s in zip(rows, starts):
            np.less_equal(xs[k], xs[s:], out=le[s:])
            # in place: ``counts[s:] += ...`` would copy the tail back
            tail = counts[s:]
            np.add(tail, ones[s:], out=tail)
        del le, ones
    if grouped.any():
        if (xs.dtype.kind == "u" and np.can_cast(xs.dtype, np.intp)
                and xs.max(initial=0) <= n):
            ranks = xs
        else:
            ranks = leq_counts_matrix(xs)
        # bin of (row i, column j): weak rank r in column j's n + 1 bins
        bins = np.arange(0, p * (n + 1), n + 1) + ranks
        # the first row of each group: the starts are sorted, so this is
        # np.unique(start[grouped]) without importing numpy.ma
        for s in np.flatnonzero(grouped & (start == np.arange(n))).tolist():
            hist = np.bincount(bins[s:s + size[s]].ravel(),
                               minlength=p * (n + 1))
            cum = hist.reshape(p, n + 1).cumsum(axis=1, dtype=acc)
            counts[s:] += np.take(cum, bins[s:])
    out = np.empty_like(counts)
    out[order] = counts
    return out


def dominance_counts_choice(y: np.ndarray, a: np.ndarray, b: np.ndarray,
                            take_a: np.ndarray,
                            first: np.ndarray) -> np.ndarray:
    """Joint dominance counts of y against the (n,) column ``first`` and
    every column of the (n, m) matrix x with ``x[i, d] = a[i]`` where
    ``take_a[i, d]`` and ``b[i]`` elsewhere, without forming x: equal to
    ``dominance_counts_matrix(y, np.c_[first, x])``.  ``first`` is counted
    in the same row blocks as x, by direct comparison.

    With ``Y[i, k] = [y_k <= y_i]`` and ``T = take_a``, the count of row i
    in column d at a value v is linear in T:

        c = sum_k Y[i, k] [b_k <= v]
            + sum_k Y[i, k] ([a_k <= v] - [b_k <= v]) T[k, d],

    a base count plus differences in {-1, 0, 1}.  Row i keeps its count at
    ``v = b_i`` where ``T[i, d]`` is clear, and these counts in every column
    are one product of the (n, n + 1) matrix ``[base, differences]`` with
    ``[1; T]``.  Its count at ``v = a_i``, kept where ``T[i, d]`` is set,
    differs by the change of base and of the differences.  Row i's own
    difference multiplies ``T[i, d]``, so its entry can carry the change of
    base and its own a-side difference, and the one product then yields the
    kept count in every column, if the other rows' differences agree at
    both values.  They do when a and b mirror each other, as the
    bootstrap's ``mean +- dev`` do (their intervals ``[b_k, a_k]`` nest),
    unless another row's value equals ``a_i`` or ``b_i``.  A block where
    they do not takes a second, a-side product, and keeps
    ``cb + T (ca - cb)``.

    Rows are taken in increasing y order, h = ``_CHOICE_ROWS`` at a time.
    Row i dominates in y exactly the rows before the end of its y-tie group,
    so a block's operand spans those rows of its last row only, and its y
    mask starts at the block's first row: the rows before it are below
    every row of the block.  No (n, n) array is formed; memory is
    O(n m + h n).

    Exactness: every operand is 0, +-1, a count or a difference of two
    counts, and every partial sum, in any order, is a count of at most n
    rows, or a difference of two, so no value formed exceeds n in
    magnitude.  Below ``_FLOAT32_ROWS`` = 2^24
    rows each is exact in float32, on any number of BLAS threads and in any
    summation order; from there on the same code runs in float64.  Only the
    selected values need to be finite: an unselected value counts 0 or 1 in
    terms that its zero mask entries cancel.
    """
    n, m = take_a.shape
    order = np.argsort(y, kind="stable")
    ys = y[order]
    end = np.searchsorted(ys, ys, side="right")
    a, b = a[order], b[order]
    real = np.float32 if n < _FLOAT32_ROWS else np.float64
    mask = np.empty((n + 1, m), dtype=real)
    mask[0] = 1
    mask[1:] = take_a[order]
    h = min(n, _CHOICE_ROWS)
    prod = np.empty((h, m), dtype=real)
    counts = np.empty((n, 1 + m), dtype=np.min_scalar_type(n))
    first = first[order]
    for lo in range(0, n, h):
        hi = min(lo + h, n)
        g, e = hi - lo, int(end[hi - 1])
        below = np.arange(lo, e) < end[lo:hi, None]
        # rows [0, g) compare with v = a_i, rows [g, 2g) with v = b_i
        v = np.concatenate([a[lo:hi], b[lo:hi]])[:, None]
        le_a, le_b = a[:e] <= v, b[:e] <= v
        le_a.reshape(2, g, e)[:, :, lo:] &= below
        le_b.reshape(2, g, e)[:, :, lo:] &= below
        base = np.count_nonzero(le_b, axis=1)
        diff = np.subtract(le_a.view(np.int8), le_b.view(np.int8))
        own = np.arange(g), np.arange(lo, hi)
        other = diff[:g] != diff[g:]
        other[own] = False
        op = np.empty((g, e + 1), dtype=real)
        op[:, 0], op[:, 1:] = base[g:], diff[g:]
        if other.any():
            cb = np.matmul(op, mask[:e + 1])
            op[:, 0], op[:, 1:] = base[:g], diff[:g]
            c = np.matmul(op, mask[:e + 1], out=prod[:g])
            c -= cb
            c *= mask[1 + lo:1 + hi]
            c += cb
        else:
            op[:, 1:][own] = base[:g] - base[g:] + diff[:g][own]
            c = np.matmul(op, mask[:e + 1], out=prod[:g])
        counts[lo:hi, 1:] = c
        le = first[:e] <= first[lo:hi, None]
        le[:, lo:] &= below
        counts[lo:hi, 0] = np.count_nonzero(le, axis=1)
    out = np.empty_like(counts)
    out[order] = counts
    return out


def _count_columns(y: np.ndarray, x: np.ndarray, reduce) -> np.ndarray:
    """The float64 results of every column of the (n, p) array x against
    the finite y: ``reduce(rx, c)`` of each chunk of `_chunk_width` (n)
    columns, with ``rx`` the chunk's `leq_counts_matrix` and ``c`` its
    `dominance_counts_matrix` against y, both (n, w), joined in column
    order.  So the working arrays beyond x stay O(n * w) whatever p is.

    `~rankscreen.workers._ordered_map` maps the chunks, on up to one
    process per CPU in the affinity mask, each with at least
    ``_COUNT_CELLS`` cells of x (`~rankscreen.workers._count`).  Every count
    is exact and ``reduce`` gives each column's result from that column's
    counts alone, so the result, and the InvalidInput raised for the first
    non-finite column (`_finite_chunk`), do not depend on the number of
    processes.
    """
    n, p = x.shape
    w = _chunk_width(n)

    def count(i):
        rx = leq_counts_matrix(_finite_chunk(x, i * w))
        return reduce(rx, dominance_counts_matrix(y, rx))

    # np.empty(0): an x of no columns maps no chunk
    return np.concatenate([np.empty(0), *workers._ordered_map(
        count, -(-p // w), workers._count(n * p, _COUNT_CELLS))])
