"""Brute-force reference implementations used to check the library's fast
paths.

Every count here is derived by explicit enumeration (nested Python loops),
independently of the sorted sweeps and the shared counting kernel under
test.  The final floating-point expressions mirror the library's documented
formulas so exact equality is well defined.  `irls_oracle` is the exception:
it is the plain IRLS step, one target at a time, through the library's
normal-equation solver, so that the batched fit can be checked against it
bit for bit.
"""

import math

import numpy as np

from rankscreen import spline
from rankscreen.spline import _solve_normal_equations


def ecdf_count_oracle(sample, t) -> int:
    count = 0
    for v in sample:
        if v <= t:
            count += 1
    return count


def dominance_counts_oracle(y, x):
    """O(n^2) double loop: c[i] = #{k : y_k <= y_i and x_k <= x_i}."""
    n = len(y)
    out = []
    for i in range(n):
        c = 0
        for k in range(n):
            if y[k] <= y[i] and x[k] <= x[i]:
                c += 1
        out.append(c)
    return np.array(out, dtype=np.int64)


def rc_utility_oracle(y, x) -> float:
    """Triple-loop utility: every count enumerated per evaluation point."""
    n = len(y)
    rho_sq = []
    for i in range(n):
        ry = 0
        rx = 0
        c = 0
        for k in range(n):
            ley = y[k] <= y[i]
            lex = x[k] <= x[i]
            if ley:
                ry += 1
            if lex:
                rx += 1
            if ley and lex:
                c += 1
        num = (n + 1.0) * c - ry * rx
        rad = (ry * (n + 1 - ry)) * (rx * (n + 1 - rx))
        rho = num / math.sqrt(rad)
        rho_sq.append(rho * rho)
    return float(np.mean(np.asarray(rho_sq)))


def kendall_tau_oracle(y, x) -> float:
    """Pair-count tau-b: concordances, discordances and ties enumerated."""
    n = len(y)
    s = 0
    ties_x = 0
    ties_y = 0
    for i in range(n):
        for k in range(i + 1, n):
            dy = int(y[i] > y[k]) - int(y[i] < y[k])
            dx = int(x[i] > x[k]) - int(x[i] < x[k])
            s += dy * dx
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
    n0 = n * (n - 1) // 2
    if n0 == ties_x or n0 == ties_y:
        return math.nan
    return s / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def pearson_oracle(y, x) -> float:
    """Textbook sample correlation."""
    n = len(y)
    my = sum(y) / n
    mx = sum(x) / n
    sxy = sum((y[i] - my) * (x[i] - mx) for i in range(n))
    syy = sum((v - my) ** 2 for v in y)
    sxx = sum((v - mx) ** 2 for v in x)
    return sxy / math.sqrt(syy * sxx)


def mms_prefix_oracle(ranking, active) -> int:
    """Smallest prefix of the ranking containing every active column."""
    active = set(int(a) for a in active)
    seen = set()
    for i, col in enumerate(ranking, start=1):
        seen.add(int(col))
        if active <= seen:
            return i
    raise AssertionError("active set not contained in the ranking")


def irls_oracle(b, targets):
    """Smoothed IRLS of each row of ``targets`` on ``b``, one target at a
    time with the textbook step ``weights = 1/sqrt((w - b c)^2 + eps^2)``
    and the weighted design formed by broadcasting, under the settings
    ``spline._EPSILON``, ``_TOL`` and ``_MAX_ITER``; returns (coefs,
    iterations, converged, ridged) like ``spline._irls``."""
    m, k = targets.shape[0], b.shape[1]
    coefs = np.empty((m, k))
    iterations = np.zeros(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    ridged = np.zeros(m, dtype=bool)
    eps_sq = spline._EPSILON ** 2
    for i in range(m):
        w = np.ascontiguousarray(targets[i])[None, :, None]
        coef, rid = _solve_normal_equations((b.T @ b)[None], b.T @ w)
        ridged[i] = rid[0]
        for it in range(1, spline._MAX_ITER + 1):
            weights = 1.0 / np.sqrt((w - b @ coef) ** 2 + eps_sq)
            bwt = (b * weights).transpose(0, 2, 1)
            new, rid = _solve_normal_equations(bwt @ b, bwt @ w)
            ridged[i] |= rid[0]
            step = np.max(np.abs(new - coef))
            coef = new
            iterations[i] = it
            if step < spline._TOL:
                converged[i] = True
                break
        coefs[i] = coef[0, :, 0]
    return coefs, iterations, converged, ridged
