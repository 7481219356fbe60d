"""Exposure-adjusted screening: spline residualization of the response and
every covariate on the exposure, followed by RC screening of the residual
pairs."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import InvalidInput, SingularDesign
from .rc_screen import rc_utilities, rc_utility
from .report import Selection, ScreeningReport, build_report
from .spline import (
    BasisConfig,
    SplineBasis,
    _fit_l2,
    _irls,
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
        Per-fit iteration counts, convergence flags and ridge flags
        (``"iterations"``, ``"converged"``, ``"ridged"``; response first)
        for the L1 loss.
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
        eps_y = dataset.y - np.median(dataset.y)
        eps_x = dataset.x - np.median(dataset.x, axis=0)
    return ResidualMatrix(eps_y=eps_y, eps_x=eps_x, loss=loss, basis=None)


def residualize(dataset: Dataset, basis_config: BasisConfig = BasisConfig(),
                loss: str = "l2") -> ResidualMatrix:
    """Fit one spline per target (response and each covariate) on the
    exposure and return observed minus fitted at the training points.

    The same basis, with knots from the exposure sample, is reused across
    all ``p + 1`` regressions, which run as one batch: the squared-loss fits
    are the start of the absolute-loss IRLS.  Every residual column equals
    the target minus `predict` of its own `fit_l2` or `fit_l1`, bit for bit.
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
    if dataset.n < basis.n_basis + 2:
        raise InvalidInput("need at least n_basis + 2 observations")
    b = design_matrix(basis, z)
    targets = np.column_stack([dataset.y, dataset.x])
    diagnostics = {}
    if loss == "l2":
        # one gram for every target: a singular one is the design's fault
        coefs, _ = _fit_l2(b, np.ascontiguousarray(targets.T)[..., None])
    else:
        try:
            coefs, iterations, converged, ridged = _irls(b, targets.T)
        except SingularDesign as exc:
            name = ([dataset.y_name] + dataset.x_names)[exc.target]
            raise SingularDesign(f"column '{name}': {exc}") from None
        coefs = coefs[..., None]
        diagnostics = {"iterations": iterations.tolist(),
                       "converged": converged.tolist(),
                       "ridged": ridged.tolist()}
    # one matrix-vector product per target, as `predict` forms it
    resid = targets - (b @ coefs)[..., 0].T
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
