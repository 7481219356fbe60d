"""Normalized B-spline basis on a bounded support and regression fits under
squared-error or absolute-error loss.

The basis is clamped (boundary knots repeated degree+1 times) with interior
knots at equally spaced sample quantiles, so the functions are nonnegative
and sum to one everywhere on the support.  The absolute-loss fit runs
iteratively reweighted least squares on the smoothed objective
``mean(sqrt(r^2 + eps^2))``, started from the squared-loss solution; the
majorize-minimize structure makes the smoothed objective nonincreasing
across iterations.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .empirical import as_finite_vector
from .errors import InvalidInput, OutOfSupport, SingularDesign

__all__ = [
    "SplineBasis",
    "SplineFit",
    "BasisConfig",
    "LadConfig",
    "basis_build",
    "basis_eval",
    "design_matrix",
    "fit_l2",
    "fit_l1",
    "predict",
    "l1_objective",
]

_SUPPORT_RTOL = 1e-9


@dataclass(frozen=True)
class BasisConfig:
    """Basis hyperparameters: polynomial degree and total basis dimension."""

    degree: int = 3
    n_basis: int = 4


@dataclass(frozen=True)
class LadConfig:
    """IRLS settings for the absolute-loss fit."""

    epsilon: float = 1e-6
    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        # epsilon ** 2 enters every weight: it must be finite and nonzero
        if not (math.isfinite(self.epsilon) and self.epsilon > 0
                and 0.0 < self.epsilon * self.epsilon < math.inf):
            raise InvalidInput(
                "epsilon must be finite and positive, with a finite nonzero "
                "square"
            )
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise InvalidInput("tol must be finite and >= 0")
        if (not isinstance(self.max_iter, numbers.Integral)
                or isinstance(self.max_iter, bool) or self.max_iter < 1):
            raise InvalidInput("max_iter must be an integer >= 1")


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
    if degree < 1:
        raise InvalidInput("degree must be >= 1")
    if n_basis < degree + 1:
        raise InvalidInput("n_basis must be >= degree + 1")
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
    """Solve ``gram @ coef = rhs`` with a Cholesky PD check; on borderline
    failure add a trace-scaled ridge once, recording that it happened.

    A stack (m, k, k) with right-hand sides (m, k, 1) is solved at once if
    every matrix passes; else each takes the ridge path alone, and a
    failure there sets the exception's ``target`` to its index.  A zero
    diagonal entry means some basis function has no support points, a
    structural rank deficiency that the ridge should not paper over.
    """
    if gram.ndim == 3:
        with contextlib.suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
            return np.linalg.solve(gram, rhs), np.zeros(len(gram), dtype=bool)
        coefs, ridged = np.empty(rhs.shape), np.zeros(len(gram), dtype=bool)
        for i, g in enumerate(gram):
            try:
                coefs[i], ridged[i] = _solve_normal_equations(g, rhs[i])
            except SingularDesign as exc:
                exc.target = i
                raise
        return coefs, ridged
    if np.any(np.diag(gram) == 0.0):
        raise SingularDesign(
            "a basis function has no observations in its support; "
            "lower n_basis"
        )
    with contextlib.suppress(np.linalg.LinAlgError):
        np.linalg.cholesky(gram)
        return np.linalg.solve(gram, rhs), False
    jitter = 1e-10 * np.trace(gram) / gram.shape[0]
    bumped = gram + jitter * np.eye(gram.shape[0])
    try:
        np.linalg.cholesky(bumped)
        return np.linalg.solve(bumped, rhs), True
    except np.linalg.LinAlgError:
        raise SingularDesign(
            "spline design is rank deficient; lower n_basis"
        ) from None


def _irls(b: np.ndarray, targets: np.ndarray, config: LadConfig):
    """Smoothed-IRLS absolute-loss fits of the rows of ``targets`` (m, n) on
    one design ``b`` (n, k); returns (coefs, iterations, converged, ridged).

    Each round solves only the targets still active: a target stops when
    its own coefficient step drops below ``config.tol``.  Every product is
    one matrix-vector product per target on a contiguous row (a
    matrix-matrix product or a strided row changes the last bits), so each
    target's iterates are exactly those of a fit on its own.

    The weights ``1/sqrt((w - b c)^2 + eps^2)`` are computed in place, one
    operation at a time in the order of that expression, so they carry the
    expression's bits.  The weighted design ``b * weights`` is formed as the
    weights repeated k times along each row, multiplied in place by the
    flattened design: a broadcast of the (a, n, 1) weights against b runs
    numpy's inner loop over only k elements at a time.  The product is the
    same (a, n, k) C-order array, element for element and stride for
    stride, so the gram and right-hand-side products see byte-identical
    operands.  A contiguous (a, k, n) layout would be faster still but
    changes those products' last bits.
    """
    (m, n), k = targets.shape, b.shape[1]
    w = np.ascontiguousarray(targets)[..., None]  # rows of the active targets
    coefs, ridged = _solve_normal_equations(
        np.broadcast_to(b.T @ b, (m, k, k)), b.T @ w)
    iterations = np.zeros(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    active = np.arange(m)
    eps_sq = config.epsilon ** 2
    b_flat = np.ascontiguousarray(b).reshape(n * k)
    for it in range(1, config.max_iter + 1):
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
        done = np.max(np.abs(new - coefs[active]), axis=(1, 2)) < config.tol
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
    z = as_finite_vector(z_col, "z_col")
    w = as_finite_vector(w_col, "w_col")
    if z.size != w.size:
        raise InvalidInput("z_col and w_col lengths differ")
    b = design_matrix(basis, z)
    coef, ridged = _solve_normal_equations(b.T @ b, b.T @ w)
    return SplineFit(basis=basis, coef=coef, loss="l2", ridged=ridged)


def l1_objective(basis: SplineBasis, coef: np.ndarray, z_col, w_col) -> float:
    """Mean absolute residual of a coefficient vector."""
    b = design_matrix(basis, np.asarray(z_col, dtype=float))
    return float(np.mean(np.abs(np.asarray(w_col, dtype=float) - b @ coef)))


def fit_l1(basis: SplineBasis, z_col, w_col,
           config: LadConfig = LadConfig()) -> SplineFit:
    """Least-absolute-deviation spline fit by smoothed IRLS.

    Starts from the squared-loss solution and iterates weighted
    least squares with weights ``1/sqrt(r^2 + eps^2)`` until the coefficient
    change drops below ``config.tol`` or ``config.max_iter`` is hit.
    Non-convergence is reported through the ``converged`` flag, not an error.
    The returned fit's exact L1 objective never exceeds the squared-loss
    solution's L1 objective by more than ``config.epsilon``.
    """
    z = as_finite_vector(z_col, "z_col")
    w = as_finite_vector(w_col, "w_col")
    if z.size != w.size:
        raise InvalidInput("z_col and w_col lengths differ")
    b = design_matrix(basis, z)
    coefs, iterations, converged, ridged = _irls(b, w[None], config)
    return SplineFit(basis=basis, coef=coefs[0], loss="l1",
                     iterations=int(iterations[0]),
                     converged=bool(converged[0]), ridged=bool(ridged[0]))


def predict(fit: SplineFit, z_col) -> np.ndarray:
    """Fitted values ``B(z_i)^T coef`` at the given exposure points."""
    b = design_matrix(fit.basis, np.asarray(z_col, dtype=float))
    return b @ fit.coef
