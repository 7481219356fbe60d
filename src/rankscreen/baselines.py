"""Reference screeners used as comparators: absolute Pearson correlation and
absolute tie-corrected Kendall rank correlation.
Each pairwise function is the one-column call of its screener's batch path,
so the two agree bit for bit.

Kendall's tau-b is derived from the counting kernel shared with the RC
utilities: the weak ranks and weak joint counts of each column chunk of
`~rankscreen.empirical._count_columns` give the concordance sum and the tie
counts as exact integers, and no n x n array is formed.  The final tau-b
expression is the one of the brute-force pair-count oracle in the test
suite, so both produce identical floating point values.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .dataset import Dataset
from .empirical import (
    _count_columns,
    as_finite_pair,
    as_finite_vector,
    column_chunks,
    leq_counts,
    leq_counts_matrix,
)
from .errors import InvalidInput
from .report import Selection, ScreeningReport, build_report

__all__ = [
    "pearson_utility",
    "kendall_utility",
    "pearson_sis",
    "kendall_sis",
]


_PEARSON_ZERO = "zero-variance column(s); Pearson utility set to 0"
_KENDALL_ZERO = "constant column; Kendall utility set to 0"


def _abs_or_zero(corrs: np.ndarray, warning: str) -> np.ndarray:
    """Absolute correlations; 0, with one warning, where one is NaN."""
    nan = np.isnan(corrs)
    if nan.any():
        warnings.warn(warning, stacklevel=3)
    return np.where(nan, 0.0, np.abs(corrs))


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """v scaled exactly by the power of two that brings each row's largest
    magnitude into [0.5, 1), so its squares neither overflow nor vanish."""
    return np.ldexp(v, -np.frexp(np.abs(v).max(axis=-1, keepdims=True))[1])


def _pearson_corrs(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pearson correlation of every column of the (n, p) array x with y; NaN
    where y or a column is constant (all entries equal) or a variance is 0.
    The chunks of `column_chunks` are taken as contiguous (chunk, n) rows, so
    every mean and sum is the 1-D sum of one column, whatever the layout of
    x and the chunk's width.  Fewer than 3 rows, a non-finite y, or a
    non-finite column of a chunk, raises InvalidInput."""
    if x.shape[0] < 3:
        raise InvalidInput("need at least 3 observations")
    as_finite_vector(y, "response")
    corrs = np.full(x.shape[1], math.nan)
    yc = _unit_scaled(y - y.mean())
    ss_y = 0.0 if np.all(y == y[0]) else (yc * yc).sum()
    for lo, chunk in column_chunks(x):
        xt = np.ascontiguousarray(chunk.T)
        xc = _unit_scaled(xt - xt.mean(axis=1)[:, None])
        denom = np.sqrt(ss_y * (xc * xc).sum(axis=1))
        denom[np.all(xt == xt[:, :1], axis=1)] = 0.0
        np.divide((xc * yc).sum(axis=1), denom, out=corrs[lo:lo + len(xt)],
                  where=denom > 0.0)
    return corrs


def pearson_utility(y_col, x_col) -> float:
    """Absolute Pearson correlation of n >= 3 pairs; 0 (with a warning) for
    a zero-variance column.  The one-column call of `pearson_sis`'s path."""
    y, x = as_finite_pair(y_col, x_col)
    return float(_abs_or_zero(_pearson_corrs(y, x[:, None]), _PEARSON_ZERO)[0])


def _tau_b(s: int, n0: int, n1: int, n2: int) -> float:
    """Tau-b from the concordant-minus-discordant sum ``s``, the pair count
    ``n0`` and the tied-pair counts ``n1`` of x and ``n2`` of y, all Python
    ints; NaN when either column is constant."""
    if n0 == n1 or n0 == n2:
        return math.nan
    return s / math.sqrt((n0 - n1) * (n0 - n2))


def _kendall_taus(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tau-b of every column of the (n, p) array x against y, from the
    shared kernel's exact counts; NaN where a column is constant.

    With weak ranks ``r = leq(v)``, ``sum(r) = n + n0 + t`` for a column with
    ``t`` tied pairs, so ``n1``, ``n2`` and the pairs ``n3`` tied in both
    (ties of the key ``ry * (n + 1) + rx``) come from sums of weak ranks.
    The weak joint counts ``c`` sum to ``n + P + n1 + n2`` over the ``P``
    concordant pairs, and ``Q = n0 - P - n1 - n2 + n3`` pairs are
    discordant, so ``S = P - Q = 2 sum(c) - 2n - n0 - n1 - n2 - n3``.
    The columns are counted in chunks, as RC's are
    (`~rankscreen.empirical._count_columns`), each column from its own
    integer sums, so no tau depends on the chunk or the process.  A
    non-finite y raises InvalidInput before any column is counted.
    """
    n = x.shape[0]
    n0 = n * (n - 1) // 2
    # compact counts: the key and the sums are formed in int64
    ry = leq_counts(as_finite_vector(y, "response")).astype(np.int64)
    n2 = int(ry.sum()) - n - n0

    def taus(rx, c):
        n1 = rx.sum(axis=0, dtype=np.int64) - n - n0
        n3 = leq_counts_matrix(ry[:, None] * (n + 1) + rx).sum(
            axis=0, dtype=np.int64) - n - n0
        s = 2 * c.sum(axis=0, dtype=np.int64) - 2 * n - n0 - n1 - n2 - n3
        return np.array([_tau_b(s_j, n0, n1_j, n2)
                         for s_j, n1_j in zip(s.tolist(), n1.tolist())])

    return _count_columns(y, x, taus)


def kendall_tau_b(y_col, x_col) -> float:
    """Tie-corrected Kendall rank correlation; NaN when a column is constant.

    The one-column call of the batch path: O(n^2) time with exact integer
    counts and O(n) memory.
    """
    y, x = as_finite_pair(y_col, x_col, min_size=2)
    return float(_kendall_taus(y, x[:, None])[0])


def kendall_utility(y_col, x_col) -> float:
    """Absolute tau-b; 0 (with a warning) when a column is constant."""
    tau = np.array([kendall_tau_b(y_col, x_col)])
    return float(_abs_or_zero(tau, _KENDALL_ZERO)[0])


def pearson_sis(dataset: Dataset, selection: Selection | None = None) -> ScreeningReport:
    """Screen by absolute Pearson correlation with the response."""
    utilities = _abs_or_zero(_pearson_corrs(dataset.y, dataset.x),
                             _PEARSON_ZERO)
    return build_report("Pearson-SIS", utilities, selection, dataset.n)


def kendall_sis(dataset: Dataset, selection: Selection | None = None) -> ScreeningReport:
    """Screen by absolute tie-corrected Kendall correlation with the response."""
    if dataset.n < 2:
        raise InvalidInput("need at least 2 observations")
    utilities = _abs_or_zero(_kendall_taus(dataset.y, dataset.x),
                             _KENDALL_ZERO)
    return build_report("Kendall-SIS", utilities, selection, dataset.n)
