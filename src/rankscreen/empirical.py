"""Integer rank counts shared by all screening estimators.

Every correlation-type quantity downstream reduces to three integer counts
per sample point: the marginal weak-rank counts ``#{k : y_k <= y_i}`` and
``#{k : x_k <= x_i}`` and the joint dominance count
``#{k : y_k <= y_i, x_k <= x_i}``.  This module computes those counts
exactly; `dominance_counts_matrix` is the only joint-count kernel, and a
single column is its p = 1 call.  The ``n/(n+1)`` boundary rescale of the
empirical CDFs, ``(n/(n+1)) * (count/n) == count/(n+1)``, is applied where
the counts are turned into correlations (``rc_screen._rho_from_counts``).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

__all__ = [
    "leq_counts",
    "leq_counts_matrix",
    "dominance_counts_matrix",
]


def as_finite_vector(sample, name: str = "sample") -> np.ndarray:
    """Coerce to a 1-D float array, rejecting empty or non-finite input."""
    arr = np.asarray(sample, dtype=float).ravel()
    if arr.size == 0:
        raise InvalidInput(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} contains non-finite values")
    return arr


def leq_counts(col: np.ndarray) -> np.ndarray:
    """``r[i] = #{k : col_k <= col_i}`` for one column, O(n log n)."""
    return np.searchsorted(np.sort(col), col, side="right").astype(np.int64)


def leq_counts_matrix(x: np.ndarray) -> np.ndarray:
    """Per-column weak-rank counts for an (n, p) matrix."""
    n, p = x.shape
    out = np.empty((n, p), dtype=np.int64)
    for j in range(p):
        col = x[:, j]
        out[:, j] = np.searchsorted(np.sort(col), col, side="right")
    return out


def dominance_counts_matrix(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Joint dominance counts of y against every column of x.

    Returns an (n, p) int64 array with
    ``c[i, j] = #{k : y_k <= y_i and x[k, j] <= x[i, j]}``.

    Rows are swept in increasing y order.  Every row from the first member
    of row k's y-tie group onward has ``y >= y_k``, so row k adds its x
    comparison to exactly those rows.  The counts are exact integers; time
    is O(n^2 p) and memory O(n p).
    """
    n, p = x.shape
    order = np.argsort(y, kind="stable")
    ys, xs = y[order], x[order]
    start = np.searchsorted(ys, ys, side="left")
    counts = np.zeros((n, p), dtype=np.int64)
    for k in range(n):
        s = start[k]
        counts[s:] += xs[k] <= xs[s:]
    out = np.empty_like(counts)
    out[order] = counts
    return out
