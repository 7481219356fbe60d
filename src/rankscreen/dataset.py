"""Dataset container shared by the screeners, generators and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

__all__ = ["Dataset"]


@dataclass(frozen=True)
class Dataset:
    """A response vector, covariate matrix and optional exposure vector.

    Every value is finite: construction raises InvalidInput naming the
    first column that holds NaN or an infinity, so the screeners need not
    check again.

    Parameters
    ----------
    y : ndarray, shape (n,)
        Response (continuous or discrete).
    x : ndarray, shape (n, p)
        Covariate matrix, one predictor per column.
    z : ndarray, shape (n,), optional
        Exposure / conditioning variable of the partial-correlation
        screeners, named ``"z"`` unless ``z_name`` is given.
    x_names : list of str, optional
        Column labels; defaults to ``x0001 ...`` when omitted.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray | None = None
    y_name: str = "y"
    z_name: str | None = None
    x_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2:
            raise InvalidInput("covariate matrix must be two-dimensional")
        if y.ndim != 1:
            raise InvalidInput("response must be one-dimensional")
        if y.shape[0] != x.shape[0]:
            raise InvalidInput(
                f"response length {y.shape[0]} != number of rows {x.shape[0]}"
            )
        if x.shape[1] < 1:
            raise InvalidInput("dataset has no covariate columns")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        if self.z is not None:
            z = np.asarray(self.z, dtype=float)
            if z.shape != y.shape:
                raise InvalidInput("exposure must match the response length")
            object.__setattr__(self, "z", z)
            object.__setattr__(self, "z_name", self.z_name or "z")
        if not self.x_names:
            width = max(4, len(str(x.shape[1])))
            object.__setattr__(
                self, "x_names", [f"x{j + 1:0{width}d}" for j in range(x.shape[1])]
            )
        elif len(self.x_names) != x.shape[1]:
            raise InvalidInput("x_names length does not match number of columns")
        # min and max propagate NaN and reach any infinity, so no (n, p)
        # mask is built; with 0 between them their sum cannot overflow
        finite = np.isfinite(x.min(axis=0, initial=0.0)
                             + x.max(axis=0, initial=0.0))
        for kind, name, ok in [
                ("response", self.y_name, np.isfinite(y).all()),
                ("covariate", self.x_names[np.argmin(finite)], finite.all()),
                ("exposure", self.z_name,
                 self.z is None or np.isfinite(self.z).all())]:
            if not ok:
                raise InvalidInput(f"{kind} column '{name}' contains NaN or "
                                   "infinite values")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]
