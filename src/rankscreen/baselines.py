"""Reference screeners used as comparators: absolute Pearson correlation and
absolute tie-corrected Kendall rank correlation.

Kendall's tau-b is derived from the counting kernel shared with the RC
utilities: weak ranks and weak joint counts of 256-column chunks give the
concordance sum and the tie counts as exact integers, and no n x n array is
formed.  The final tau-b expression is the one of the brute-force pair-count
oracle in the test suite, so both produce identical floating point values.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .dataset import Dataset
from .empirical import (
    as_finite_vector,
    dominance_counts_matrix,
    leq_counts,
    leq_counts_matrix,
)
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


# Columns counted per kernel call: bounds the (n, chunk) count arrays.
_CHUNK = 256


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
    """
    n, p = x.shape
    n0 = n * (n - 1) // 2
    ry = leq_counts(y)
    n2 = int(ry.sum()) - n - n0
    taus = np.empty(p)
    for lo in range(0, p, _CHUNK):
        rx = leq_counts_matrix(x[:, lo:lo + _CHUNK])
        c = dominance_counts_matrix(y, rx.astype(np.min_scalar_type(n)))
        n1 = rx.sum(axis=0) - n - n0
        n3 = leq_counts_matrix(ry[:, None] * (n + 1) + rx).sum(axis=0) - n - n0
        s = 2 * c.sum(axis=0) - 2 * n - n0 - n1 - n2 - n3
        for j, (s_j, n1_j) in enumerate(zip(s.tolist(), n1.tolist())):
            taus[lo + j] = _tau_b(s_j, n0, n1_j, n2)
    return taus


def kendall_tau_b(y_col, x_col) -> float:
    """Tie-corrected Kendall rank correlation; NaN when a column is constant.

    The one-column call of the batch path: O(n^2) time with exact integer
    counts and O(n) memory.
    """
    y = as_finite_vector(y_col, "y_col")
    x = as_finite_vector(x_col, "x_col")
    if y.size != x.size:
        raise InvalidInput("column lengths differ")
    if y.size < 2:
        raise InvalidInput("need at least 2 observations")
    return float(_kendall_taus(y, x[:, None])[0])


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
    taus = _kendall_taus(dataset.y, dataset.x)
    constant = np.isnan(taus)
    if constant.any():
        warnings.warn("constant column; Kendall utility set to 0",
                      stacklevel=2)
    utilities = np.where(constant, 0.0, np.abs(taus))
    if selection is None:
        selection = TopD(default_top_d(dataset.n))
    return build_report("Kendall-SIS", utilities, selection, dataset.n)
