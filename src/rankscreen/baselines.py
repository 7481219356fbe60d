"""Reference screeners used as comparators: absolute Pearson correlation and
absolute tie-corrected Kendall rank correlation.

The Kendall fast path derives the concordance sum and tie counts as exact
integers from sign matrices; the final tau-b expression is shared with the
brute-force pair-count oracle in the test suite, so both produce identical
floating point values.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .dataset import Dataset
from .empirical import as_finite_vector
from .errors import InvalidInput
from .report import Selection, ScreeningReport, TopD, build_report, default_top_d

__all__ = [
    "pearson_utility",
    "kendall_utility",
    "pearson_sis",
    "kendall_sis",
]


def pearson_utility(y_col, x_col) -> float:
    """Absolute sample Pearson correlation; 0 (with a warning) for a
    zero-variance column."""
    y = as_finite_vector(y_col, "y_col")
    x = as_finite_vector(x_col, "x_col")
    if y.size != x.size:
        raise InvalidInput("column lengths differ")
    yc = y - y.mean()
    xc = x - x.mean()
    denom = math.sqrt(float(yc @ yc) * float(xc @ xc))
    if denom == 0.0:
        warnings.warn("zero-variance column; Pearson utility set to 0",
                      stacklevel=2)
        return 0.0
    return abs(float(yc @ xc) / denom)


def _tie_pair_count(col: np.ndarray) -> int:
    """Number of tied pairs: sum over tie groups of t*(t-1)/2."""
    _, counts = np.unique(col, return_counts=True)
    return int(np.sum(counts * (counts - 1)) // 2)


def _concordance_sum(y_sign: np.ndarray, x: np.ndarray) -> int:
    """Concordant minus discordant pair count via sign matrices (exact)."""
    x_sign = np.sign(x[:, None] - x[None, :])
    total = np.einsum("ik,ik->", y_sign, x_sign, dtype=np.float64)
    return int(round(total)) // 2


def _tau_b(y_sign: np.ndarray, n2: int, x: np.ndarray) -> float:
    """Tau-b of x against the response whose sign matrix is ``y_sign`` and
    whose tied-pair count is ``n2``; NaN when either column is constant."""
    n = x.size
    n0 = n * (n - 1) // 2
    n1 = _tie_pair_count(x)
    if n0 == n1 or n0 == n2:
        return math.nan
    s = _concordance_sum(y_sign, x)
    return s / math.sqrt((n0 - n1) * (n0 - n2))


def kendall_tau_b(y_col, x_col) -> float:
    """Tie-corrected Kendall rank correlation.

    O(n^2) vectorized over sign matrices with integer accumulation; chosen
    over the merge-sort algorithm because the screening sample sizes are
    moderate and the arithmetic stays exactly reproducible.
    """
    y = as_finite_vector(y_col, "y_col")
    x = as_finite_vector(x_col, "x_col")
    if y.size != x.size:
        raise InvalidInput("column lengths differ")
    n = y.size
    if n < 2:
        raise InvalidInput("need at least 2 observations")
    y_sign = np.sign(y[:, None] - y[None, :])
    return _tau_b(y_sign, _tie_pair_count(y), x)


def kendall_utility(y_col, x_col) -> float:
    """Absolute tau-b; 0 (with a warning) when a column is constant."""
    tau = kendall_tau_b(y_col, x_col)
    if math.isnan(tau):
        warnings.warn("constant column; Kendall utility set to 0",
                      stacklevel=2)
        return 0.0
    return abs(tau)


def pearson_sis(dataset: Dataset, selection: Selection | None = None) -> ScreeningReport:
    """Screen by absolute Pearson correlation with the response."""
    dataset.require_finite()
    if dataset.n < 3:
        raise InvalidInput("need at least 3 observations")
    y = dataset.y
    yc = y - y.mean()
    ss_y = float(yc @ yc)
    xc = dataset.x - dataset.x.mean(axis=0)
    ss_x = np.einsum("ij,ij->j", xc, xc)
    cov = yc @ xc
    utilities = np.zeros(dataset.p)
    ok = (ss_x > 0.0) & (ss_y > 0.0)
    if not np.all(ok):
        warnings.warn("zero-variance column(s); Pearson utility set to 0",
                      stacklevel=2)
    utilities[ok] = np.abs(cov[ok] / np.sqrt(ss_y * ss_x[ok]))
    if selection is None:
        selection = TopD(default_top_d(dataset.n))
    return build_report("Pearson-SIS", utilities, selection, dataset.n)


def kendall_sis(dataset: Dataset, selection: Selection | None = None) -> ScreeningReport:
    """Screen by absolute tie-corrected Kendall correlation with the response."""
    dataset.require_finite()
    if dataset.n < 2:
        raise InvalidInput("need at least 2 observations")
    y = dataset.y
    y_sign = np.sign(y[:, None] - y[None, :])
    n2 = _tie_pair_count(y)
    utilities = np.zeros(dataset.p)
    warned = False
    for j in range(dataset.p):
        tau = _tau_b(y_sign, n2, dataset.x[:, j])
        if math.isnan(tau):
            if not warned:
                warnings.warn("constant column; Kendall utility set to 0",
                              stacklevel=2)
                warned = True
            continue
        utilities[j] = abs(tau)
    if selection is None:
        selection = TopD(default_top_d(dataset.n))
    return build_report("Kendall-SIS", utilities, selection, dataset.n)
