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
from .report import Selection, ScreeningReport, TopD, build_report, default_top_d
from .spline import (
    BasisConfig,
    LadConfig,
    SplineBasis,
    _irls,
    _solve_normal_equations,
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
                loss: str = "l2",
                lad_config: LadConfig = LadConfig()) -> ResidualMatrix:
    """Fit one spline per target (response and each covariate) on the
    exposure and return observed minus fitted at the training points.

    The same basis, with knots from the exposure sample, is reused across
    all ``p + 1`` regressions.  Under squared loss all fits share one
    factorization, so the whole matrix is residualized in a single solve;
    under absolute loss all fits run as one batched IRLS.
    """
    if dataset.z is None:
        raise InvalidInput("dataset has no exposure column to residualize on")
    if loss not in _LOSSES:
        raise InvalidInput(f"loss must be one of {_LOSSES}")
    dataset.require_finite()
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
        coefs, _ = _solve_normal_equations(b.T @ b, b.T @ targets)
        resid = targets - b @ coefs
    else:
        try:
            coefs, iterations, converged, ridged = _irls(b, targets.T,
                                                         lad_config)
        except SingularDesign as exc:
            name = ([dataset.y_name] + dataset.x_names)[exc.target]
            raise SingularDesign(f"column '{name}': {exc}") from None
        resid = targets - (b @ coefs[..., None])[..., 0].T
        diagnostics = {"iterations": iterations.tolist(),
                       "converged": converged.tolist(),
                       "ridged": ridged.tolist()}
    return ResidualMatrix(eps_y=resid[:, 0], eps_x=resid[:, 1:], loss=loss,
                          basis=basis, diagnostics=diagnostics)


def rpc_utility(eps_y, eps_xj) -> float:
    """RC utility of a residual pair; same contract as `rc_utility`."""
    return rc_utility(eps_y, eps_xj)


def rpc_screen(dataset: Dataset, loss: str = "l2",
               basis_config: BasisConfig = BasisConfig(),
               selection: Selection | None = None,
               lad_config: LadConfig = LadConfig()) -> ScreeningReport:
    """Exposure-adjusted screening: residualize, then rank by RC utility of
    the residual pairs.

    The method tag records the loss, e.g. ``"RPC-SIS(L1)"``.
    """
    residuals = residualize(dataset, basis_config=basis_config, loss=loss,
                            lad_config=lad_config)
    utilities = rc_utilities(residuals.eps_y, residuals.eps_x)
    if selection is None:
        selection = TopD(default_top_d(dataset.n))
    tag = f"RPC-SIS({loss.upper()})"
    return build_report(tag, utilities, selection, dataset.n)
