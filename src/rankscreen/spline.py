"""Normalized B-spline basis on a bounded support and regression fits under
squared-error or absolute-error loss.

The basis is clamped (boundary knots repeated degree+1 times) with interior
knots at equally spaced sample quantiles, so the functions are nonnegative
and sum to one everywhere on the support.  The absolute-loss fit is exact:
least absolute deviation is a linear program, and `_exchange` walks its
vertices by Barrodale-Roberts pivots (Barrodale & Roberts 1973; Koenker &
d'Orey 1987, AS 229) from a nonsingular basis near the squared-loss
solution, until the subgradient certificate ``max|u| <= 1`` proves the
vertex optimal (Koenker 2005, Thm 2.1).  No iteration cap or smoothing
enters the result: a fit is certified or raises SingularDesign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirical import as_finite_pair, as_finite_vector, quantiles
from .errors import InvalidInput, OutOfSupport, SingularDesign, _is_int

__all__ = [
    "SplineBasis",
    "SplineFit",
    "BasisConfig",
    "basis_build",
    "basis_eval",
    "design_matrix",
    "fit_l2",
    "fit_l1",
    "predict",
    "l1_objective",
]

_SUPPORT_RTOL = 1e-9

# Tolerances of the exact absolute-loss fit: the slack of its optimality
# certificate (`_exchange`), and the relative size below which a residual,
# a row's rate of change along a pivot's direction, or the part of a row
# outside the span of the rows already kept for a start (`_start_basis`)
# counts as zero.
_CERT_TOL = 1e-9
_ZERO_RTOL = 2.0 ** -30


@dataclass(frozen=True)
class BasisConfig:
    """Basis hyperparameters: polynomial degree and total basis dimension."""

    degree: int = 3
    n_basis: int = 4

    def __post_init__(self):
        if not _is_int(self.degree) or self.degree < 1:
            raise InvalidInput("degree must be an integer >= 1")
        if not _is_int(self.n_basis) or self.n_basis < self.degree + 1:
            raise InvalidInput("n_basis must be an integer >= degree + 1")


@dataclass(frozen=True)
class SplineBasis:
    """Clamped B-spline basis on ``[lo, hi]``.

    Attributes
    ----------
    degree : int
        Polynomial degree (>= 1).
    knots : ndarray
        Full clamped knot vector of length ``n_basis + degree + 1``.
    interior_knots : ndarray
        The knots strictly inside the boundary.
    lo, hi : float
        Support endpoints, taken from the build sample.
    n_basis : int
        Number of basis functions (= degree + 1 + number of interior knots).
    """

    degree: int
    knots: np.ndarray
    interior_knots: np.ndarray
    lo: float
    hi: float
    n_basis: int


def basis_build(z_sample, degree: int = 3, n_basis: int = 4) -> SplineBasis:
    """Build a clamped basis with quantile-placed interior knots.

    Parameters
    ----------
    z_sample : array-like
        Sample of the exposure; its min/max become the support.
    degree : int
        Polynomial degree, >= 1.
    n_basis : int
        Total basis dimension; must be >= degree + 1.  The number of
        interior knots is ``n_basis - degree - 1``.
    """
    z = as_finite_vector(z_sample, "z_sample")
    BasisConfig(degree, n_basis)  # checks both
    if z.size < n_basis:
        raise InvalidInput("need at least n_basis sample points")
    lo, hi = float(z.min()), float(z.max())
    if lo == hi:
        raise InvalidInput("exposure sample is constant; no support to span")
    m = n_basis - degree - 1
    if m > 0:
        probs = np.arange(1, m + 1) / (m + 1)
        interior = quantiles(z, probs)
        if interior.min() <= lo or interior.max() >= hi:
            raise InvalidInput(
                "too few distinct exposure values to place interior knots"
            )
    else:
        interior = np.empty(0)
    knots = np.concatenate([
        np.full(degree + 1, lo),
        interior,
        np.full(degree + 1, hi),
    ])
    return SplineBasis(degree=degree, knots=knots,
                       interior_knots=np.asarray(interior, dtype=float),
                       lo=lo, hi=hi, n_basis=n_basis)


def _clamp_to_support(basis: SplineBasis, z: np.ndarray) -> np.ndarray:
    span = basis.hi - basis.lo
    tol = _SUPPORT_RTOL * max(span, abs(basis.lo), abs(basis.hi), 1.0)
    if np.any(z < basis.lo - tol) or np.any(z > basis.hi + tol):
        bad = z[(z < basis.lo - tol) | (z > basis.hi + tol)][0]
        raise OutOfSupport(
            f"point {bad!r} outside support [{basis.lo}, {basis.hi}]"
        )
    return np.clip(z, basis.lo, basis.hi)


def design_matrix(basis: SplineBasis, z_col) -> np.ndarray:
    """Evaluate all basis functions at each point: (n, n_basis) matrix.

    Cox-de Boor recursion starting from interval indicators; the last
    interval is treated as closed so the right endpoint evaluates to the
    final basis function.
    """
    z = np.atleast_1d(np.asarray(z_col, dtype=float))
    z = _clamp_to_support(basis, z)
    t = basis.knots
    k = basis.degree
    n_intervals = len(t) - 1
    b = ((z[:, None] >= t[None, :-1]) & (z[:, None] < t[None, 1:])).astype(float)
    # close the final nonempty interval at the right boundary
    at_hi = z == basis.hi
    if np.any(at_hi):
        last = np.flatnonzero(t[:-1] < t[1:])[-1]
        b[at_hi, :] = 0.0
        b[at_hi, last] = 1.0
    for d in range(1, k + 1):
        nb = n_intervals - d
        new = np.zeros((z.size, nb))
        for i in range(nb):
            den1 = t[i + d] - t[i]
            if den1 > 0:
                new[:, i] += (z - t[i]) / den1 * b[:, i]
            den2 = t[i + d + 1] - t[i + 1]
            if den2 > 0:
                new[:, i] += (t[i + d + 1] - z) / den2 * b[:, i + 1]
        b = new
    return b


def basis_eval(basis: SplineBasis, z: float) -> np.ndarray:
    """Basis values at one point: nonnegative, summing to one."""
    return design_matrix(basis, np.array([z]))[0]


@dataclass(frozen=True)
class SplineFit:
    """Fitted spline regression of one target column on the exposure."""

    basis: SplineBasis
    coef: np.ndarray
    loss: str
    iterations: int = 0
    converged: bool = True
    ridged: bool = False


def _fit_l2(b: np.ndarray, w: np.ndarray):
    """Least-squares fits of the contiguous rows of ``w`` (m, n, 1) on one
    design ``b`` (n, k): (coefs (m, k, 1), ridged).

    The gram ``b^T b`` gets one Cholesky PD check.  Where it fails, a
    trace-scaled ridge is added once and checked once, and ``ridged`` is
    True; a zero diagonal entry means some basis function has no support
    points, a structural rank deficiency that the ridge should not paper
    over.  A failure is the design's, so its SingularDesign names no
    ``target``.  Each right-hand side is one matrix-vector product and the
    stack is one solve, so each target's fit is bit-identical to a fit on
    its own; `fit_l2` is the m = 1 call."""
    gram, ridged = b.T @ b, False
    k = gram.shape[0]
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        if np.any(np.diag(gram) == 0.0):
            raise SingularDesign("a basis function has no observations "
                                 "in its support; lower n_basis") from None
        jitter = 1e-10 * np.trace(gram) / k
        gram, ridged = gram + jitter * np.eye(k), True
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise SingularDesign("spline design is rank deficient; "
                                 "lower n_basis") from None
    return (np.linalg.solve(np.broadcast_to(gram, (w.shape[0], k, k)),
                            b.T @ w), ridged)


def _start_basis(b: np.ndarray, w: np.ndarray, coefs: np.ndarray):
    """A nonsingular starting basis for each row of ``w`` (m, n): walking
    the rows of ``b`` (n, k) by increasing absolute residual of the
    least-squares ``coefs`` (m, k, 1), stable on ties, keep each row that
    raises the rank, until k are kept.  A row raises the rank when more
    than `_ZERO_RTOL` of its norm is left after projecting out the rows
    kept so far (Gram-Schmidt, twice).  Returns the sorted row indices
    (m, k); a target whose rows span fewer than k dimensions raises
    SingularDesign with its index as ``target``."""
    (m, n), k = w.shape, b.shape[1]
    res = np.abs(w[..., None] - b @ coefs)[..., 0]
    order = np.argsort(res, axis=1)
    ordered = np.take_along_axis(res, order, axis=1)
    tied = ~(ordered[:, 1:] > ordered[:, :-1]).all(axis=1)  # or NaN
    order[tied] = np.argsort(res[tied], axis=1, kind="stable")
    del res, ordered
    basis = np.zeros((m, k), dtype=np.intp)
    found = np.zeros(m, dtype=np.intp)
    q = np.zeros((m, k, k))  # orthonormal rows kept so far, zero-padded
    row_norms = np.linalg.norm(b, axis=1)
    for s in range(n):
        act = np.flatnonzero(found < k)
        if act.size == 0:
            return np.sort(basis, axis=1)
        rows = order[act, s]
        qa = q[act]
        v = b[rows][..., None]
        for _ in range(2):
            v = v - qa.transpose(0, 2, 1) @ (qa @ v)
        norm = np.linalg.norm(v[..., 0], axis=1)
        keep = norm > _ZERO_RTOL * row_norms[rows]
        i, pos = act[keep], found[act[keep]]
        q[i, pos] = v[keep, :, 0] / norm[keep, None]
        basis[i, pos] = rows[keep]
        found[i] += 1
    if (found == k).all():
        return np.sort(basis, axis=1)
    raise _fail("spline design is rank deficient; lower n_basis",
                np.argmax(found < k))


def _fail(message: str, target) -> SingularDesign:
    """SingularDesign naming the index of the failing fit."""
    exc = SingularDesign(message)
    exc.target = int(target)
    return exc


def _exchange(b: np.ndarray, w: np.ndarray, basis: np.ndarray):
    """Barrodale-Roberts vertex exchange for the absolute-loss fits of the
    rows of ``w`` (m, n) on ``b`` (n, k), from the nonsingular bases
    ``basis`` (m, k) of sorted row indices; returns (coefs (m, k), final
    bases, pivots, degenerate).

    A basis h interpolates its k rows, ``c = b[h]^-1 w[h]``, so the
    residuals ``r = w - b c`` are 0 on h.  With the signs ``sigma`` of the
    residuals, ``u = -(sigma^T b) b[h]^-1``, and the vertex is optimal when
    ``max|u| <= 1`` (the subgradient condition, checked with slack
    `_CERT_TOL`); it is degenerate, and its optimum may not be unique, when
    some ``|u_j| >= 1 - _CERT_TOL``.  Otherwise position ``j = argmax|u|``
    leaves and c moves along ``d = -sign(u_j) b[h]^-1 e_j``: the objective's
    slope starts at ``1 - |u_j|`` and rises by ``2|b_i d|`` at each row
    whose residual reaches 0, at ``t_i = r_i / (b_i d) >= 0``; the row where
    the slope first reaches 0 (a weighted median of the t_i) enters.  Each
    basis is kept sorted, so the coefficients are those of the final basis
    alone.

    Ties and zero residuals (within `_ZERO_RTOL` of the target's largest
    absolute value) are resolved as if w were ``w + eps xi`` for an
    infinitesimal eps and the fixed ``xi_i = frac(i phi)``, i = 1..n, with
    phi the golden ratio: distinct values that, unlike a linear sequence,
    lie in no spline space of the exposure.  Their residuals are
    ``e = xi - b b[h]^-1 xi[h]``: a zero residual has the sign of ``e_i``,
    and rows tied in t are ordered by ``e_i / (b_i d)``, then by index (a
    stable sort).  That problem has no degenerate vertex, so every pivot
    lowers its objective and no basis repeats; its certificate is one for w
    too, since any sign of a zero residual is an admissible subgradient.  A
    row whose ``|b_i d|`` is within `_ZERO_RTOL` of ``max|d|`` does not
    move.

    Each round handles the fits still active, with one matrix-vector
    product per target on a contiguous row and one LAPACK call per basis, so
    a target's pivots and bits are those of a fit on its own.  A fit still
    uncertified after ``2n`` pivots, or whose arithmetic leaves the finite
    floats, raises SingularDesign with its index as ``target``.
    """
    (m, n), k = w.shape, b.shape[1]
    basis = np.array(basis)  # pivots write it; the caller's stays as it was
    coefs = np.empty((m, k))
    final = np.empty_like(basis)
    pivots = np.zeros(m, dtype=int)
    degenerate = np.zeros(m, dtype=bool)
    active = np.arange(m)
    zero_tol = _ZERO_RTOL * np.abs(w).max(axis=1)[:, None]
    xi = np.modf(np.arange(1, n + 1) * ((1.0 + 5.0 ** 0.5) / 2.0))[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for pivot in range(2 * n + 1):
            bh = b[basis]
            try:
                c = np.linalg.solve(
                    bh, np.take_along_axis(w, basis, 1)[..., None])
                inv = np.linalg.inv(bh)
            except np.linalg.LinAlgError:  # an exact zero pivot, as det's
                singular = [np.linalg.det(g) == 0.0 for g in bh]
                raise _fail("LAD basis is singular",
                            active[singular.index(True)]) from None
            r = (w[..., None] - b @ c)[..., 0]
            finite = np.isfinite(r).all(axis=1)
            if not finite.all():
                raise _fail("LAD residuals are not finite",
                            active[np.argmin(finite)])
            np.put_along_axis(r, basis, 0.0, axis=1)
            zero = np.abs(r) <= zero_tol
            np.copyto(r, 0.0, where=zero)
            sigma = np.sign(r)
            lex = np.flatnonzero(zero.sum(axis=1) > k)
            if lex.size:  # a zero residual off the basis takes e's sign
                e = _tie_residuals(b, xi, inv[lex], basis[lex])
                sigma[lex] += np.sign(e) * zero[lex]
            u = -((b.T @ sigma[..., None]).transpose(0, 2, 1) @ inv)[:, 0]
            abs_u = np.abs(u)
            u_max = abs_u.max(axis=1)
            done = u_max <= 1.0 + _CERT_TOL
            if done.any():
                i = active[done]
                coefs[i], final[i] = c[done, :, 0], basis[done]
                degenerate[i] = u_max[done] >= 1.0 - _CERT_TOL
                if done.all():
                    return coefs, final, pivots, degenerate
                keep = ~done
                active, w, basis, zero_tol = (active[keep], w[keep],
                                              basis[keep], zero_tol[keep])
                r, sigma, u, abs_u, inv = (r[keep], sigma[keep], u[keep],
                                           abs_u[keep], inv[keep])
            if pivot == 2 * n:
                break
            at = np.arange(active.size)
            j = abs_u.argmax(axis=1)
            d = -np.sign(u[at, j])[:, None] * inv[at, :, j]
            bd = (b @ d[..., None])[..., 0]
            np.put_along_axis(bd, basis, 0.0, axis=1)
            block = ((np.abs(bd) > _ZERO_RTOL * np.abs(d).max(axis=1)[:, None])
                     & (sigma == np.sign(bd)))
            t = np.where(block, r / bd, np.inf)
            del r, sigma
            order = np.argsort(t, axis=1)
            ts = np.take_along_axis(t, order, axis=1)
            tied = np.flatnonzero(
                ((ts[:, 1:] == ts[:, :-1]) & (ts[:, 1:] < np.inf)).any(axis=1))
            if tied.size:  # order (t, e / bd, index)
                e = _tie_residuals(b, xi, inv[tied], basis[tied])
                order[tied] = np.lexsort((e / bd[tied], t[tied]), axis=1)
            del t
            slope = np.abs(bd, out=bd)
            slope *= block
            del block
            slope = np.take_along_axis(slope, order, axis=1)
            np.cumsum(slope, axis=1, out=slope)
            reach = slope >= (0.5 * (abs_u[at, j] - 1.0))[:, None]
            del slope
            q = reach.argmax(axis=1)
            found = reach[at, q] & (ts[at, q] < np.inf)
            if not found.all():
                raise _fail("LAD line search found no minimum",
                            active[np.argmin(found)])
            del ts
            basis[at, j] = order[at, q]
            basis.sort(axis=1)
            pivots[active] += 1
    raise _fail(f"LAD fit not certified within {2 * n} pivots", active[0])


def _tie_residuals(b, xi, inv, basis):
    """Residuals ``e = xi - b b[h]^-1 xi[h]`` of the tie-breaking values at
    each basis h of ``basis`` (a, k), given the inverses ``inv``; 0 on h."""
    e = xi - (b @ (inv @ xi[basis][..., None]))[..., 0]
    np.put_along_axis(e, basis, 0.0, axis=1)
    return e


def _lad(b: np.ndarray, w: np.ndarray):
    """Exact absolute-loss fits of the rows of ``w`` (m, n) on ``b`` (n, k),
    by `_exchange` from `_start_basis` of their `_fit_l2` solutions; returns
    (coefs (m, k), pivots, ridged, degenerate), where the one bool
    ``ridged`` flags a design whose least-squares start needed the ridge.
    Arithmetic that overflows is detected, not warned about, and raises
    SingularDesign: with the failing fit's index as ``target``, or with
    none when the design itself fails in `_fit_l2`."""
    w = np.ascontiguousarray(w)
    with np.errstate(over="ignore", invalid="ignore"):
        start, ridged = _fit_l2(b, w[..., None])
        basis = _start_basis(b, w, start)
    coefs, _, pivots, degenerate = _exchange(b, w, basis)
    return coefs, pivots, ridged, degenerate


def fit_l2(basis: SplineBasis, z_col, w_col) -> SplineFit:
    """Least-squares spline fit via the normal equations.

    Residuals are orthogonal to every basis column up to solver tolerance.
    """
    z, w = as_finite_pair(z_col, w_col, ("z_col", "w_col"))
    coefs, ridged = _fit_l2(design_matrix(basis, z), w[None, :, None])
    return SplineFit(basis=basis, coef=coefs[0, :, 0], loss="l2",
                     ridged=ridged)


def l1_objective(basis: SplineBasis, coef: np.ndarray, z_col, w_col) -> float:
    """Mean absolute residual of a coefficient vector."""
    b = design_matrix(basis, np.asarray(z_col, dtype=float))
    return float(np.mean(np.abs(np.asarray(w_col, dtype=float) - b @ coef)))


def fit_l1(basis: SplineBasis, z_col, w_col) -> SplineFit:
    """Least-absolute-deviation spline fit, exact: a vertex of the LAD
    linear program that passes the optimality certificate.

    Starts from the k rows with the smallest least-squares residuals that
    keep the basis nonsingular and exchanges one row at a time
    (Barrodale-Roberts) until ``max|u| <= 1`` certifies the vertex; see
    `_exchange`.  ``iterations`` counts the exchanges (pivots), ``converged``
    is always True (an uncertified fit raises SingularDesign instead), and
    ``ridged`` flags a design whose least-squares start needed the ridge.
    """
    z, w = as_finite_pair(z_col, w_col, ("z_col", "w_col"))
    b = design_matrix(basis, z)
    coefs, pivots, ridged, _ = _lad(b, w[None])
    return SplineFit(basis=basis, coef=coefs[0], loss="l1",
                     iterations=int(pivots[0]), ridged=ridged)


def predict(fit: SplineFit, z_col) -> np.ndarray:
    """Fitted values ``B(z_i)^T coef`` at the given exposure points."""
    b = design_matrix(fit.basis, np.asarray(z_col, dtype=float))
    return b @ fit.coef
