"""Robust indicator-correlation screening, pointwise inference and the
wild-bootstrap independence test.

The pointwise estimator evaluated at a sample pair reduces, under the
``n/(n+1)`` rescaling, to an exact integer form

    rho = ((n+1)*c - ry*rx) / sqrt( ry*(n+1-ry) * rx*(n+1-rx) )

where ``ry``, ``rx`` are the marginal weak-rank counts at the point and
``c`` the joint dominance count.  Every code path (single pair, batch
screening, bootstrap replicates) takes ``rho`` from `_rho_from_counts`, and
the utility paths take their counts from the one batch kernel
`~rankscreen.empirical.dominance_counts_matrix`, so results are
bit-identical across them.  All computation is serial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .empirical import (
    as_finite_vector,
    dominance_counts_matrix,
    leq_counts,
    leq_counts_matrix,
)
from .errors import DegenerateEvaluation, InvalidInput
from .report import Selection, ScreeningReport, TopD, build_report, default_top_d

__all__ = [
    "robust_corr",
    "rc_utility",
    "rc_utilities",
    "rc_screen",
    "robust_corr_ci",
    "wild_bootstrap_test",
    "PointwiseCi",
    "BootstrapTestResult",
]


def _rho_from_counts(c, ry, rx, n):
    """Correlation of rank indicators from integer counts (vectorized).

    The two radicand factors are exact integers; their product would
    overflow int64 near n = 1e5, so it is formed in float64, rounded once
    like ``math.sqrt`` of the exact integer product.
    """
    num = (n + 1.0) * c - ry * rx
    rad = np.multiply(ry * (n + 1 - ry), rx * (n + 1 - rx), dtype=float)
    return num / np.sqrt(rad)


def robust_corr(y: float, x: float, y_sample, x_sample) -> float:
    """Indicator-correlation estimate at the point ``(y, x)``.

    Correlation of the indicators ``I(Y <= y)`` and ``I(X <= x)`` computed
    from rescaled empirical CDFs of the paired sample.  Returns 0 by
    convention when the query point lies below all data in either margin
    (only reachable through this diagnostic API).

    Parameters
    ----------
    y, x : float
        Evaluation point, typically a sample pair.
    y_sample, x_sample : array-like, shape (n,)
        The paired observations.

    Returns
    -------
    float in [-1, 1]
    """
    ys = as_finite_vector(y_sample, "y_sample")
    xs = as_finite_vector(x_sample, "x_sample")
    if ys.size != xs.size:
        raise InvalidInput("paired samples have different lengths")
    n = ys.size
    if n < 2:
        raise InvalidInput("need at least 2 paired observations")
    ry = int(np.sum(ys <= y))
    rx = int(np.sum(xs <= x))
    if ry == 0 or rx == 0:
        return 0.0
    c = int(np.sum((ys <= y) & (xs <= x)))
    return float(_rho_from_counts(c, ry, rx, n))


def rc_utility(y_col, x_col) -> float:
    """Screening utility: mean squared indicator correlation over the sample.

    Evaluates the pointwise estimator at every sample pair ``(y_i, x_i)``
    under the rescale convention and averages the squares.  Always lies in
    ``[0, 1]``; equals 1 exactly when ``x_col`` is a strictly increasing
    function of ``y_col`` (no ties).
    """
    y = as_finite_vector(y_col, "y_col")
    x = as_finite_vector(x_col, "x_col")
    if y.size != x.size:
        raise InvalidInput(
            f"column lengths differ ({y.size} vs {x.size})"
        )
    return float(rc_utilities(y, x[:, None])[0])


def rc_utilities(y_col, x) -> np.ndarray:
    """Utilities for every column of an (n, p) covariate matrix.

    Each column's utility is bit-identical to `rc_utility` on that column.
    """
    y = as_finite_vector(y_col, "y_col")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidInput("covariate matrix must be 2-D")
    n, p = x.shape
    if y.size != n:
        raise InvalidInput("response length does not match covariate rows")
    if n < 2:
        raise InvalidInput("need at least 2 observations")
    ry = leq_counts(y)
    rx = leq_counts_matrix(x)
    c = dominance_counts_matrix(y, x)
    out = np.empty(p)
    for j in range(p):
        rho = _rho_from_counts(c[:, j], ry, rx[:, j], n)
        out[j] = np.mean(rho * rho)
    return out


def rc_screen(dataset: Dataset,
              selection: Selection | None = None) -> ScreeningReport:
    """Rank all covariates by RC utility and select a subset.

    Parameters
    ----------
    dataset : Dataset
        Response may be continuous or discrete.
    selection : TopD or UtilityThreshold, optional
        Defaults to keeping the top ``floor(n / ln n)`` columns.
    """
    dataset.require_finite()
    if dataset.n < 2:
        raise InvalidInput("need at least 2 observations")
    utilities = rc_utilities(dataset.y, dataset.x)
    if selection is None:
        selection = TopD(default_top_d(dataset.n))
    return build_report("RC-SIS", utilities, selection, dataset.n)


# ---------------------------------------------------------------------------
# Pointwise confidence interval
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointwiseCi:
    """Asymptotic confidence interval for the indicator correlation at a point."""

    estimate: float
    variance: float
    level: float
    lower: float
    upper: float


_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)


def _norm_ppf(prob: float) -> float:
    """Standard normal quantile via a rational approximation plus one
    Halley refinement step (accuracy well below 1e-8; no tables)."""
    if not 0.0 < prob < 1.0:
        raise InvalidInput("probability must be in (0, 1)")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low = 0.02425
    if prob < p_low:
        q = math.sqrt(-2.0 * math.log(prob))
        z = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
              + c[5])
             / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    elif prob <= 1.0 - p_low:
        q = prob - 0.5
        r = q * q
        z = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
              + a[5]) * q
             / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r
                + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - prob))
        z = -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
               + c[5])
              / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    # Halley polish using the exact normal CDF via erfc.
    err = 0.5 * math.erfc(-z / math.sqrt(2.0)) - prob
    u = err * math.sqrt(2.0 * math.pi) * math.exp(z * z / 2.0)
    return z - u / (1.0 + z * u / 2.0)


def robust_corr_ci(y: float, x: float, y_sample, x_sample,
                   level: float = 0.95) -> PointwiseCi:
    """Plug-in asymptotic CI for the indicator correlation at ``(y, x)``.

    The asymptotic variance is the delta-method sandwich of the three
    influence terms of the joint/marginal indicator moments; empirical CDFs
    (rescaled) replace the population CDFs and sample averages replace the
    expectations.  Intended for moderately large samples (n >= 30 or so).

    Raises
    ------
    DegenerateEvaluation
        If a variance-type denominator vanishes, which under the rescale
        can only happen for query points below all data.
    """
    if not 0.0 < level < 1.0:
        raise InvalidInput("level must be in (0, 1)")
    ys = as_finite_vector(y_sample, "y_sample")
    xs = as_finite_vector(x_sample, "x_sample")
    if ys.size != xs.size:
        raise InvalidInput("paired samples have different lengths")
    n = ys.size
    if n < 2:
        raise InvalidInput("need at least 2 paired observations")
    iy = (ys <= y).astype(float)
    ix = (xs <= x).astype(float)
    fy = iy.sum() / (n + 1)
    fx = ix.sum() / (n + 1)
    fyx = float(np.sum(iy * ix)) / (n + 1)
    th1 = fyx - fy * fx
    th2 = fx - fx * fx
    th3 = fy - fy * fy
    if th2 <= 0.0 or th3 <= 0.0:
        raise DegenerateEvaluation(
            "indicator variance vanishes at the requested point"
        )
    xi1 = (ix - fx) * (iy - fy) - th1
    xi2 = (ix - fx) ** 2 - th2
    xi3 = (iy - fy) ** 2 - th3
    s = math.sqrt(th2 * th3)
    g1 = 1.0 / s
    g2 = -th1 / (2.0 * th2 * s)
    g3 = -th1 / (2.0 * th3 * s)
    influence = g1 * xi1 + g2 * xi2 + g3 * xi3
    variance = float(np.mean(influence * influence))
    rho = th1 / s
    z = _norm_ppf(1.0 - (1.0 - level) / 2.0)
    half = z * math.sqrt(variance / n)
    return PointwiseCi(estimate=rho, variance=variance, level=level,
                       lower=rho - half, upper=rho + half)


# ---------------------------------------------------------------------------
# Wild bootstrap independence test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapTestResult:
    """Outcome of the wild-bootstrap independence test for one covariate."""

    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    n_boot: int
    alpha: float
    seed: int


def _rademacher_matrix(seed: int, n: int, n_boot: int) -> np.ndarray:
    """(n, n_boot) matrix of +-1 draws; column d comes from the d-th child
    stream of ``SeedSequence(seed)``, so each replicate's draws depend only
    on the seed and the replicate index."""
    children = np.random.SeedSequence(seed).spawn(n_boot)
    out = np.empty((n, n_boot))
    for d, child in enumerate(children):
        gen = np.random.Generator(np.random.Philox(child))
        out[:, d] = gen.integers(0, 2, size=n) * 2.0 - 1.0
    return out


def wild_bootstrap_test(y_col, x_col, n_boot: int = 500, alpha: float = 0.05,
                        seed: int | None = None) -> BootstrapTestResult:
    """Test independence of ``y_col`` and ``x_col`` by sign-flip resampling.

    Each replicate flips the signs of the deviations of ``x_col`` from its
    mean with independent Rademacher draws, recomputes the RC utility on the
    flipped column and compares the observed utility against the ``1 - alpha``
    empirical quantile of the replicate utilities.  Deterministic given
    ``seed``; the p-value uses the ``(1 + count) / (n_boot + 1)`` convention.
    """
    if n_boot < 2:
        raise InvalidInput("need at least 2 bootstrap replicates")
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("alpha must be in (0, 1)")
    y = as_finite_vector(y_col, "y_col")
    x = as_finite_vector(x_col, "x_col")
    if y.size != x.size:
        raise InvalidInput("column lengths differ")
    n = y.size
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
    statistic = rc_utility(y, x)
    dev = x - x.mean()
    iota = _rademacher_matrix(seed, n, n_boot)
    x_star = x.mean() + iota * dev[:, None]
    boot = rc_utilities(y, x_star)
    k = int(math.ceil((1.0 - alpha) * n_boot - 1e-9))
    k = min(max(k, 1), n_boot)
    critical = float(np.partition(boot, k - 1)[k - 1])
    p_value = (1 + int(np.sum(boot >= statistic))) / (n_boot + 1)
    return BootstrapTestResult(
        statistic=statistic,
        critical_value=critical,
        p_value=p_value,
        reject=bool(statistic > critical),
        n_boot=n_boot,
        alpha=alpha,
        seed=seed,
    )
