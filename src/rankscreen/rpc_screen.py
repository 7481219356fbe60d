"""Exposure-adjusted screening: spline residualization of the response and
every covariate on the exposure, followed by RC screening of the residual
pairs."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .empirical import _chunk_width, quantiles
from .errors import InvalidInput, SingularDesign
from .rc_screen import rc_utilities, rc_utility
from .report import Selection, ScreeningReport, build_report
from .spline import (
    BasisConfig,
    SplineBasis,
    _fit_l2,
    _lad,
    basis_build,
    design_matrix,
)

__all__ = [
    "ResidualMatrix",
    "residualize",
    "rpc_utility",
    "rpc_screen",
]

_LOSSES = ("l2", "l1")


@dataclass(frozen=True)
class ResidualMatrix:
    """Residuals of the response and every covariate after removing the
    exposure's effect.

    Attributes
    ----------
    eps_y : ndarray, shape (n,)
        Response residuals.
    eps_x : ndarray, shape (n, p)
        Covariate residuals, one column per predictor.
    loss : str
        ``"l2"`` (conditional-mean fits) or ``"l1"`` (conditional-median).
    basis : SplineBasis or None
        The shared basis; None when the degenerate centering fallback ran.
    diagnostics : dict
        For the L1 loss: ``"iterations"`` (simplex pivots from the starting
        basis) and ``"degenerate"`` (some ``|u_j| = 1`` within tolerance, so
        the optimum may not be unique), one entry per fit, response first,
        and ``"ridged"``, one bool for the shared design (the least-squares
        starts needed the ridge).
    """

    eps_y: np.ndarray
    eps_x: np.ndarray
    loss: str
    basis: SplineBasis | None
    diagnostics: dict = field(default_factory=dict)


def _center_fallback(dataset: Dataset, loss: str) -> ResidualMatrix:
    """Constant exposure: fall back to mean (L2) or median (L1) centering."""
    warnings.warn(
        "exposure is constant; residualization degenerates to centering",
        stacklevel=3,
    )
    if loss == "l2":
        eps_y = dataset.y - dataset.y.mean()
        eps_x = dataset.x - dataset.x.mean(axis=0)
    else:
        eps_y = dataset.y - quantiles(dataset.y)
        eps_x = dataset.x - quantiles(dataset.x)
    return ResidualMatrix(eps_y=eps_y, eps_x=eps_x, loss=loss, basis=None)


def _target_rows(dataset: Dataset, lo: int, hi: int) -> np.ndarray:
    """Targets ``lo:hi`` (0 is the response, j the covariate j - 1) as the
    contiguous rows of an (hi - lo, n) array."""
    rows = np.empty((hi - lo, dataset.n))
    first = max(lo, 1)
    if lo == 0:
        rows[0] = dataset.y
    rows[first - lo:] = dataset.x[:, first - 1:hi - 1].T
    return rows


def residualize(dataset: Dataset, basis_config: BasisConfig = BasisConfig(),
                loss: str = "l2") -> ResidualMatrix:
    """Fit one spline per target (response and each covariate) on the
    exposure and return observed minus fitted at the training points.

    The same basis, with knots from the exposure sample, is reused across
    all ``p + 1`` regressions.  They run in batches of consecutive targets,
    `empirical._chunk_width` (n) wide, so the working arrays beyond the
    result stay O(n * width) whatever p is: the squared-loss fits share one
    gram, and the absolute-loss fits are exact LAD vertices started from
    them.  Each target's fit is its own, so every residual column equals
    the target minus `predict` of its own `fit_l2` or `fit_l1`, bit for
    bit, whatever the batch.
    """
    if dataset.z is None:
        raise InvalidInput("dataset has no exposure column to residualize on")
    if loss not in _LOSSES:
        raise InvalidInput(f"loss must be one of {_LOSSES}")
    if np.array_equal(dataset.y, dataset.z):
        raise InvalidInput(f"the exposure '{dataset.z_name}' is the "
                           f"response '{dataset.y_name}'")
    z = dataset.z
    if np.all(z == z[0]):
        return _center_fallback(dataset, loss)
    basis = basis_build(z, degree=basis_config.degree,
                        n_basis=basis_config.n_basis)
    n, m = dataset.n, dataset.p + 1
    if n < basis.n_basis + 2:
        raise InvalidInput("need at least n_basis + 2 observations")
    b = design_matrix(basis, z)
    resid = np.empty((n, m))
    fits = []
    width = _chunk_width(n)
    for lo in range(0, m, width):
        w = _target_rows(dataset, lo, min(lo + width, m))
        if loss == "l2":
            coefs, _ = _fit_l2(b, w[..., None])
        else:
            try:
                coefs, pivots, ridged, degenerate = _lad(b, w)
            except SingularDesign as exc:
                if exc.target is None:  # the design's fault, not a column's
                    raise
                name = ([dataset.y_name] + dataset.x_names)[lo + exc.target]
                raise SingularDesign(f"column '{name}': {exc}") from None
            fits.append((pivots, degenerate))
            coefs = coefs[..., None]
        # one matrix-vector product per target, as `predict` forms it
        resid[:, lo:lo + len(w)] = w.T - (b @ coefs)[..., 0].T
    diagnostics = {}
    if fits:
        pivots, degenerate = map(np.concatenate, zip(*fits))
        diagnostics = {"iterations": pivots.tolist(), "ridged": ridged,
                       "degenerate": degenerate.tolist()}
    return ResidualMatrix(eps_y=resid[:, 0], eps_x=resid[:, 1:], loss=loss,
                          basis=basis, diagnostics=diagnostics)


def rpc_utility(eps_y, eps_xj) -> float:
    """RC utility of a residual pair; same contract as `rc_utility`."""
    return rc_utility(eps_y, eps_xj)


def rpc_screen(dataset: Dataset, loss: str = "l2",
               basis_config: BasisConfig = BasisConfig(),
               selection: Selection | None = None) -> ScreeningReport:
    """Exposure-adjusted screening: residualize, then rank by RC utility of
    the residual pairs.

    The method tag records the loss, e.g. ``"RPC-SIS(L1)"``.
    """
    residuals = residualize(dataset, basis_config=basis_config, loss=loss)
    utilities = rc_utilities(residuals.eps_y, residuals.eps_x)
    tag = f"RPC-SIS({loss.upper()})"
    return build_report(tag, utilities, selection, dataset.n)
