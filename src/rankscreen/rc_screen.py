"""Robust indicator-correlation screening, pointwise inference and the
wild-bootstrap independence test.

The pointwise estimator evaluated at a sample pair reduces, under the
``n/(n+1)`` rescaling, to an exact integer form

    rho = ((n+1)*c - ry*rx) / sqrt( ry*(n+1-ry) * rx*(n+1-rx) )

where ``ry``, ``rx`` are the marginal weak-rank counts at the point and
``c`` the joint dominance count.  Every code path (single pair, batch
screening, bootstrap replicates) takes ``rho`` from `_rho_from_counts` and
reduces it with `_utilities`, so results are bit-identical across them.
The screening paths take their counts from the batch kernel
`~rankscreen.empirical.dominance_counts_matrix`, streamed over column chunks
by `~rankscreen.empirical.count_chunks`; the bootstrap takes the counts of
its sign-flip replicates, which it never forms, from
`~rankscreen.empirical.dominance_counts_choice`, an exact integer matrix
product that may run on BLAS threads.  Nothing else runs in threads.  The
CLI's ``test --all`` may test its columns in forked processes, each with one
BLAS thread, which inherit the Rademacher mask drawn once before the fork.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .empirical import (
    as_finite_pair,
    count_chunks,
    dominance_counts_choice,
    leq_counts,
    leq_counts_choice,
)
from .errors import DegenerateEvaluation, InvalidInput, _is_int, check_seed
from .report import Selection, ScreeningReport, build_report

__all__ = [
    "robust_corr",
    "rc_utility",
    "rc_utilities",
    "rc_screen",
    "robust_corr_ci",
    "wild_bootstrap_test",
    "check_bootstrap_settings",
    "PointwiseCi",
    "BootstrapTestResult",
]


_SAMPLES = ("y_sample", "x_sample")

# Cells of one (w, n) float64 buffer of `_utilities`: 128 KB, the bytes of
# the counting kernel's uint8 chunk.  Of 2^13, 2^14 and 2^15, 2^13 was
# slower at n = 200 and the other two were level (2-core Xeon, 2 MB L2 per
# core, numpy 2.4); whole 2^17-cell chunks took nearly twice as long.
_RHO_CELLS = 2 ** 14


def _rho_from_counts(c, ry, rx, n):
    """Correlation of rank indicators from integer counts (vectorized).

    ``c`` and ``rx`` are the (n, w) counts of w columns (or the (n,) counts
    of one) and ``ry`` the (n,) counts of y.  The result is C-ordered
    (w, n): row j holds column j's ``rho`` at the n sample points, so that
    it reduces as one contiguous 1-D array.  The counts are cast to float64
    once; each product of two counts, ``rx ry`` and ``rx (n + 1 - rx)``, is
    then an exact integer (below 2^53 for n < 9e7), and the radicand is
    rounded once, as ``math.sqrt`` of the exact integer product takes it
    (the radicand would overflow int64 near n = 1e5).  Three (w, n) float
    buffers are made.
    """
    m = n + 1.0
    fy = np.asarray(ry, dtype=float)
    fx = np.array(rx.T, dtype=float, order="C")
    rho = np.multiply(c.T, m, order="C")
    buf = np.multiply(fx, fy)
    rho -= buf
    np.subtract(m, fx, out=buf)
    buf *= fx
    buf *= fy * (m - fy)
    np.sqrt(buf, out=buf)
    rho /= buf
    return rho


def _slice_width(n: int) -> int:
    """Columns per slice of `_utilities`: its (w, n) float buffers stay
    near ``_RHO_CELLS`` cells, with at least one column."""
    return max(1, _RHO_CELLS // n)


def _utilities(y: np.ndarray, chunks, m: int) -> np.ndarray:
    """RC utilities of m columns from their ``(lo, rx, c)`` count chunks:
    the mean of ``rho ** 2`` over the n rows of each column.  Each chunk is
    reduced in slices of `_slice_width` columns, so the float buffers of
    `_rho_from_counts` stay cache-sized whatever the chunk's width; every
    column's ``rho`` row and its mean are the same at any slice width."""
    n = y.size
    ry = leq_counts(y)
    w = _slice_width(n)
    out = np.empty(m)
    for lo, rx, c in chunks:
        for a in range(0, rx.shape[1], w):
            rho = _rho_from_counts(c[:, a:a + w], ry, rx[:, a:a + w], n)
            rho *= rho
            out[lo + a:lo + a + rho.shape[0]] = rho.mean(axis=1)
    return out


def _point_counts(y: float, x: float, y_sample, x_sample):
    """Indicators ``I(Y_i <= y)``, ``I(X_i <= x)`` and their counts
    ``ry``, ``rx``, ``c``: the one source of both pointwise estimates."""
    ys, xs = as_finite_pair(y_sample, x_sample, _SAMPLES, min_size=2)
    if math.isnan(y) or math.isnan(x):
        raise InvalidInput("query point (y, x) is NaN")
    iy, ix = ys <= y, xs <= x
    return iy, ix, int(iy.sum()), int(ix.sum()), int((iy & ix).sum())


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
    iy, _, ry, rx, c = _point_counts(y, x, y_sample, x_sample)
    if ry == 0 or rx == 0:
        return 0.0
    return float(_rho_from_counts(*np.atleast_1d(c, ry, rx), iy.size)[0])


def rc_utility(y_col, x_col) -> float:
    """Screening utility: mean squared indicator correlation over the sample.

    Evaluates the pointwise estimator at every sample pair ``(y_i, x_i)``
    under the rescale convention and averages the squares.  Always lies in
    ``[0, 1]``; equals 1 exactly when ``x_col`` is a strictly increasing
    function of ``y_col`` (no ties).
    """
    y, x = as_finite_pair(y_col, x_col)
    return float(rc_utilities(y, x[:, None])[0])


def rc_utilities(y_col, x) -> np.ndarray:
    """Utilities for every column of an (n, p) covariate matrix.

    Each column's utility is bit-identical to `rc_utility` on that column.
    `~rankscreen.empirical.count_chunks` checks that y and x are finite and
    takes the joint counts on the weak ranks of one chunk of x at a time.
    Memory beyond x and the result is O(n * chunk), independent of p.
    """
    y = np.asarray(y_col, dtype=float).ravel()
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidInput("covariate matrix must be 2-D")
    n, p = x.shape
    if y.size != n:
        raise InvalidInput("response length does not match covariate rows")
    if n < 2:
        raise InvalidInput("need at least 2 observations")
    return _utilities(y, count_chunks(y, x), p)


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
    utilities = rc_utilities(dataset.y, dataset.x)
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


def _norm_ppf(prob: float) -> float:
    """Standard normal quantile."""
    # imported here: the module costs every command about 0.5 MB of RSS
    from statistics import NormalDist
    if not 0.0 < prob < 1.0:
        raise InvalidInput("probability must be in (0, 1)")
    return NormalDist().inv_cdf(prob)


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
    iy, ix, ry, rx, c = _point_counts(y, x, y_sample, x_sample)
    n = iy.size
    fy, fx = ry / (n + 1), rx / (n + 1)
    th1 = c / (n + 1) - fy * fx
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
    rho = float(_rho_from_counts(*np.atleast_1d(c, ry, rx), n)[0])
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


_last_rademacher: dict = {}


def _rademacher_matrix(seed: int, n: int, n_boot: int) -> np.ndarray:
    """(n, n_boot) boolean mask of Rademacher draws, True for +1 and False
    for -1; column d comes from the d-th child stream of
    ``SeedSequence(seed)``, so each replicate's draws depend only on the
    seed and the replicate index.  The last mask is kept and returned again,
    read-only, when the same arguments come back."""
    key = (seed, n, n_boot)
    if _last_rademacher.get("key") != key:
        children = np.random.SeedSequence(seed).spawn(n_boot)
        out = np.empty((n, n_boot), dtype=bool)
        for d, child in enumerate(children):
            gen = np.random.Generator(np.random.Philox(child))
            out[:, d] = gen.integers(0, 2, size=n) == 1
        out.flags.writeable = False
        _last_rademacher.update(key=key, matrix=out)
    return _last_rademacher["matrix"]


def check_bootstrap_settings(n_boot: int, alpha: float):
    """Raise InvalidInput unless ``n_boot`` is an integer >= 2 and
    ``0 < alpha < 1``."""
    if not _is_int(n_boot) or n_boot < 2:
        raise InvalidInput("need at least 2 bootstrap replicates (an "
                           f"integer), got {n_boot!r}")
    if not 0.0 < alpha < 1.0:
        raise InvalidInput("alpha must be in (0, 1)")


def _bootstrap_utilities(y: np.ndarray, x: np.ndarray,
                         take_a: np.ndarray) -> np.ndarray:
    """RC utilities of x (entry 0) and of its sign-flip replicates: entry
    d + 1 is that of ``mean + iota[:, d] * dev`` with ``dev = x - mean``,
    ``iota = 1`` where ``take_a`` and -1 elsewhere, bit-identical to
    `rc_utilities` of that column.

    Row i of every replicate is one of two values, ``a_i = fl(mean +
    dev_i)`` or ``b_i = fl(mean - dev_i)``, so the replicates' weak ranks
    come from one sort of those 2n values (`leq_counts_choice`), their joint
    counts from one matrix product with the mask
    (`dominance_counts_choice`, which counts x in the same row blocks), and
    no (n, n_boot) float replicate matrix is formed.  A selected ``a_i`` or
    ``b_i`` that overflows raises InvalidInput.
    """
    n = y.size
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean()
        dev = x - mean
        a, b = dev + mean, mean - dev
    if not (np.isfinite(a[take_a.any(axis=1)]).all()
            and np.isfinite(b[~take_a.all(axis=1)]).all()):
        raise InvalidInput("x_col's sign-flipped replicates overflow")
    ranks = np.empty((n, 1 + take_a.shape[1]), dtype=np.min_scalar_type(n))
    ranks[:, 0] = leq_counts(x)
    ranks[:, 1:] = leq_counts_choice(a, b, take_a)
    counts = dominance_counts_choice(y, a, b, take_a, x)
    return _utilities(y, [(0, ranks, counts)], ranks.shape[1])


def wild_bootstrap_test(y_col, x_col, n_boot: int = 500, alpha: float = 0.05,
                        seed: int | None = None) -> BootstrapTestResult:
    """Test independence of ``y_col`` and ``x_col`` by sign-flip resampling.

    Each replicate flips the signs of the deviations of ``x_col`` from its
    mean with independent Rademacher draws, recomputes the RC utility on the
    flipped column and compares the observed utility against the ``1 - alpha``
    empirical quantile of the replicate utilities.  Deterministic given
    ``seed``, an integer >= 0; the p-value is ``(1 + count) / (n_boot + 1)``.
    Raises InvalidInput if a replicate overflows (`_bootstrap_utilities`).
    """
    check_bootstrap_settings(n_boot, alpha)
    y, x = as_finite_pair(y_col, x_col, min_size=2)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
    check_seed(seed)
    # the observed statistic comes from the same pass as the replicates,
    # and every column's utility is computed on its own
    utilities = _bootstrap_utilities(y, x,
                                     _rademacher_matrix(seed, y.size, n_boot))
    statistic = float(utilities[0])
    boot = utilities[1:]
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
