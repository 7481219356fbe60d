"""Normalized B-spline basis on a bounded support and regression fits under
squared-error or absolute-error loss.

The basis is clamped (boundary knots repeated degree+1 times) with interior
knots at equally spaced sample quantiles, so the functions are nonnegative
and sum to one everywhere on the support.  The absolute-loss fit runs
iteratively reweighted least squares on the smoothed objective
``mean(sqrt(r^2 + eps^2))``, started from the squared-loss solution; the
majorize-minimize structure makes the smoothed objective nonincreasing
across iterations.  Its settings are the module constants `_EPSILON` (eps),
`_TOL` (the coefficient-step tolerance) and `_MAX_ITER` (the round cap),
read at each call.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .empirical import as_finite_pair, as_finite_vector
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

# smoothed-IRLS settings of the absolute-loss fit
_EPSILON = 1e-6
_TOL = 1e-8
_MAX_ITER = 200


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
        interior = np.quantile(z, probs)
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


def _solve_normal_equations(gram: np.ndarray, rhs: np.ndarray):
    """Solve the stack ``gram[i] @ coef[i] = rhs[i]``, shapes (m, k, k) and
    (m, k, 1), with a Cholesky PD check; returns (coefs, ridged).

    The stack is solved at once if every matrix passes; else each alone,
    adding a trace-scaled ridge once where its check fails, and a failure
    sets the exception's ``target`` to its index.  A zero diagonal entry
    means some basis function has no support points, a structural rank
    deficiency that the ridge should not paper over.
    """
    ridged = np.zeros(len(gram), dtype=bool)
    with contextlib.suppress(np.linalg.LinAlgError):
        np.linalg.cholesky(gram)
        return np.linalg.solve(gram, rhs), ridged
    coefs = np.empty(rhs.shape)
    for i, g in enumerate(gram):
        try:
            if np.any(np.diag(g) == 0.0):
                raise SingularDesign("a basis function has no observations "
                                     "in its support; lower n_basis")
            with contextlib.suppress(np.linalg.LinAlgError):
                np.linalg.cholesky(g)
                coefs[i] = np.linalg.solve(g, rhs[i])
                continue
            jitter = 1e-10 * np.trace(g) / g.shape[0]
            bumped = g + jitter * np.eye(g.shape[0])
            try:
                np.linalg.cholesky(bumped)
            except np.linalg.LinAlgError:
                raise SingularDesign("spline design is rank deficient; "
                                     "lower n_basis") from None
            coefs[i], ridged[i] = np.linalg.solve(bumped, rhs[i]), True
        except SingularDesign as exc:
            exc.target = i
            raise
    return coefs, ridged


def _fit_l2(b: np.ndarray, w: np.ndarray):
    """Least-squares fits of the contiguous rows of ``w`` (m, n, 1) on one
    design ``b`` (n, k): (coefs (m, k, 1), ridged (m,)).  Each right-hand
    side is one matrix-vector product, so each target's fit is bit-identical
    to a fit on its own; `fit_l2` is the m = 1 call."""
    m, k = w.shape[0], b.shape[1]
    return _solve_normal_equations(np.broadcast_to(b.T @ b, (m, k, k)),
                                   b.T @ w)


def _irls(b: np.ndarray, targets: np.ndarray):
    """Smoothed-IRLS absolute-loss fits of the rows of ``targets`` (m, n) on
    one design ``b`` (n, k), started from their `_fit_l2` solutions; returns
    (coefs, iterations, converged, ridged).

    The settings are read at each call.  At most `_MAX_ITER` rounds run, and
    each solves only the targets still active: a target stops when its own
    coefficient step drops below `_TOL`.  Every product is one
    matrix-vector product per target on a contiguous row (a matrix-matrix
    product or a strided row changes the last bits), so each target's
    iterates are exactly those of a fit on its own.

    The weights ``1/sqrt((w - b c)^2 + eps^2)``, with eps = `_EPSILON`, are
    computed in place, one operation at a time in the order of that
    expression, so they carry the expression's bits.  The weighted design
    ``b * weights`` is formed as the weights repeated k times along each
    row, multiplied in place by the flattened design: a broadcast of the
    (a, n, 1) weights against b runs numpy's inner loop over only k elements
    at a time.  The product is the same (a, n, k) C-order array, element for
    element and stride for stride, so the gram and right-hand-side products
    see byte-identical operands.  A contiguous (a, k, n) layout would be
    faster still but changes those products' last bits.
    """
    (m, n), k = targets.shape, b.shape[1]
    w = np.ascontiguousarray(targets)[..., None]  # rows of the active targets
    coefs, ridged = _fit_l2(b, w)
    iterations = np.zeros(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    active = np.arange(m)
    eps_sq = _EPSILON ** 2
    b_flat = np.ascontiguousarray(b).reshape(n * k)
    for it in range(1, _MAX_ITER + 1):
        a = active.size
        weights = b @ coefs[active]
        np.subtract(w, weights, out=weights)
        np.square(weights, out=weights)
        weights += eps_sq
        np.sqrt(weights, out=weights)
        np.reciprocal(weights, out=weights)
        bwt = np.repeat(weights.reshape(a, n), k, axis=1)
        del weights  # freed before the products: a lower peak RSS
        bwt *= b_flat
        bwt = bwt.reshape(a, n, k).transpose(0, 2, 1)
        try:
            new, rid = _solve_normal_equations(bwt @ b, bwt @ w)
        except SingularDesign as exc:
            exc.target = int(active[exc.target])
            raise
        ridged[active] |= rid
        done = np.max(np.abs(new - coefs[active]), axis=(1, 2)) < _TOL
        coefs[active] = new
        iterations[active] = it
        converged[active[done]] = True
        if done.any():
            active, w = active[~done], w[~done]
        if active.size == 0:
            break
    return coefs[..., 0], iterations, converged, ridged


def fit_l2(basis: SplineBasis, z_col, w_col) -> SplineFit:
    """Least-squares spline fit via the normal equations.

    Residuals are orthogonal to every basis column up to solver tolerance.
    """
    z, w = as_finite_pair(z_col, w_col, ("z_col", "w_col"))
    coefs, ridged = _fit_l2(design_matrix(basis, z), w[None, :, None])
    return SplineFit(basis=basis, coef=coefs[0, :, 0], loss="l2",
                     ridged=bool(ridged[0]))


def l1_objective(basis: SplineBasis, coef: np.ndarray, z_col, w_col) -> float:
    """Mean absolute residual of a coefficient vector."""
    b = design_matrix(basis, np.asarray(z_col, dtype=float))
    return float(np.mean(np.abs(np.asarray(w_col, dtype=float) - b @ coef)))


def fit_l1(basis: SplineBasis, z_col, w_col) -> SplineFit:
    """Least-absolute-deviation spline fit by smoothed IRLS.

    Starts from the squared-loss solution and iterates weighted
    least squares with weights ``1/sqrt(r^2 + eps^2)``, eps = `_EPSILON`,
    until the coefficient change drops below `_TOL` or `_MAX_ITER` rounds
    have run.  Non-convergence is reported through the ``converged`` flag,
    not an error.  The returned fit's exact L1 objective never exceeds the
    squared-loss solution's L1 objective by more than eps.
    """
    z, w = as_finite_pair(z_col, w_col, ("z_col", "w_col"))
    b = design_matrix(basis, z)
    coefs, iterations, converged, ridged = _irls(b, w[None])
    return SplineFit(basis=basis, coef=coefs[0], loss="l1",
                     iterations=int(iterations[0]),
                     converged=bool(converged[0]), ridged=bool(ridged[0]))


def predict(fit: SplineFit, z_col) -> np.ndarray:
    """Fitted values ``B(z_i)^T coef`` at the given exposure points."""
    b = design_matrix(fit.basis, np.asarray(z_col, dtype=float))
    return b @ fit.coef
