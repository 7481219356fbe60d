"""Brute-force reference implementations used to check the library's fast
paths.

Every count here is derived by explicit enumeration (nested Python loops,
or every pair compared at once by broadcasting), independently of the
sorted sweeps and the shared counting kernel under test.  The final
floating-point expressions mirror the library's documented formulas so
exact equality is well defined.  The two LAD oracles return an
optimal absolute-loss objective instead: `lad_oracle` by trying every
k-subset of a tiny design, `lad_linprog` by an independent LP solver.
"""

import itertools
import math

import numpy as np


def ecdf_count_oracle(sample, t) -> int:
    count = 0
    for v in sample:
        if v <= t:
            count += 1
    return count


def dominance_counts_oracle(y, x):
    """All n^2 pairs compared at once:
    ``c[i, j] = #{k : y_k <= y_i and x[k, j] <= x[i, j]}``, as an int64
    array of x's shape (one column or an (n, p) matrix)."""
    y = np.asarray(y)
    x = np.asarray(x)
    cols = x.reshape(len(y), -1)
    ley = y[None, :] <= y[:, None]  # [i, k]: y_k <= y_i
    out = np.stack([(ley & (col[None, :] <= col[:, None])).sum(axis=1)
                    for col in cols.T], axis=1).astype(np.int64)
    return out.reshape(x.shape)


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


def rho_table_oracle(c, ry, rx, n):
    """``rho`` of the counts as (w, n) rows, the products read from tables
    of ``k`` and ``k (n + 1 - k)``, k = 0..n, in float64: each entry is an
    exact integer, and the radicand is rounded once."""
    k = np.arange(n + 1.0)
    spread = k * (n + 1 - k)
    c, rx = np.asarray(c).T, np.asarray(rx).T
    num = c * (n + 1.0) - k[rx] * k[np.asarray(ry)]
    return num / np.sqrt(spread[rx] * spread[np.asarray(ry)])


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


def lad_oracle(b, w) -> float:
    """Least absolute deviation of ``w`` on the (n, k) design ``b`` by
    enumeration: some optimum interpolates k rows of a full-rank design, so
    the least ``sum |w - b c|`` over the c that interpolate a nonsingular
    k-subset of the rows is the optimum."""
    n, k = b.shape
    best = math.inf
    for rows in itertools.combinations(range(n), k):
        sub = b[list(rows)]
        if np.linalg.matrix_rank(sub) < k:
            continue
        c = np.linalg.solve(sub, w[list(rows)])
        best = min(best, float(np.abs(w - b @ c).sum()))
    return best


def lad_linprog(b, w) -> float:
    """The same optimum from the linear program ``min sum(r+ + r-)`` subject
    to ``b c + r+ - r- = w``, ``r+, r- >= 0``, solved by HiGHS: the
    objective ``sum |w - b c|`` of its c, which stays exact when an
    ill-conditioned b makes the solver's own slacks inexact."""
    from scipy.optimize import linprog

    n, k = b.shape
    eye = np.eye(n)
    res = linprog(np.r_[np.zeros(k), np.ones(2 * n)],
                  A_eq=np.hstack([b, eye, -eye]), b_eq=w,
                  bounds=[(None, None)] * k + [(0, None)] * (2 * n),
                  method="highs")
    assert res.status == 0, res.message
    return float(np.abs(w - b @ res.x[:k]).sum())


def normal_equations_oracle(b, w):
    """Least squares of each row of ``w`` (m, n) on ``b`` (n, k), one target
    at a time: the gram ``g = b^T b`` must have no zero diagonal entry;
    where its Cholesky check fails, ``jitter = 1e-10 trace(g) / k`` is added
    to its diagonal and checked again; then ``np.linalg.solve`` of the one
    (k, k) system with ``b^T w_i``.  Returns (coefs (m, k, 1), ridged (m,));
    a failed check raises ``np.linalg.LinAlgError``."""
    k = b.shape[1]
    coefs, ridged = np.empty((len(w), k, 1)), np.zeros(len(w), dtype=bool)
    for i, target in enumerate(w):
        g = b.T @ b
        if np.any(np.diag(g) == 0.0):
            raise np.linalg.LinAlgError("a basis function has no support")
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            jitter = 1e-10 * np.trace(g) / k
            g = g + jitter * np.eye(k)
            np.linalg.cholesky(g)
            ridged[i] = True
        coefs[i] = np.linalg.solve(g, b.T @ target[:, None])
    return coefs, ridged
