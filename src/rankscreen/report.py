"""Ranking, selection rules and the screening report container."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidInput

__all__ = [
    "TopD",
    "UtilityThreshold",
    "Selection",
    "default_top_d",
    "rank_columns",
    "build_report",
    "ScreeningReport",
]


@dataclass(frozen=True)
class TopD:
    """Keep the d highest-utility predictors."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise InvalidInput("top-d budget must be >= 1")


@dataclass(frozen=True)
class UtilityThreshold:
    """Keep predictors whose utility strictly exceeds a cutoff."""

    value: float


Selection = Union[TopD, UtilityThreshold]


def default_top_d(n: int) -> int:
    """Default screening budget floor(n / ln n)."""
    if n < 2:
        raise InvalidInput("need at least 2 observations for the default budget")
    return int(math.floor(n / math.log(n)))


def rank_columns(utilities: np.ndarray) -> np.ndarray:
    """Column indices sorted by descending utility, ties by ascending index."""
    p = utilities.shape[0]
    return np.lexsort((np.arange(p), -utilities))


def build_report(method: str, utilities: np.ndarray, selection: Selection,
                 n: int) -> "ScreeningReport":
    utilities = np.asarray(utilities, dtype=float)
    p = utilities.shape[0]
    ranking = rank_columns(utilities)
    if isinstance(selection, TopD):
        selected = ranking[: min(selection.d, p)].copy()
    elif isinstance(selection, UtilityThreshold):
        selected = ranking[utilities[ranking] > selection.value].copy()
    else:
        raise InvalidInput(f"unknown selection rule: {selection!r}")
    return ScreeningReport(
        method=method,
        utilities=utilities,
        ranking=ranking,
        selected=selected,
        selection=selection,
        n=n,
        p=p,
    )


@dataclass(frozen=True)
class ScreeningReport:
    """Result of running one screener over a dataset.

    Attributes
    ----------
    method : str
        Screener tag, e.g. ``"RC-SIS"``.
    utilities : ndarray, shape (p,)
        Marginal utility per covariate column (0-based indexing throughout).
    ranking : ndarray, shape (p,)
        Column indices ordered best first (descending utility, ties broken
        by ascending column index).
    selected : ndarray
        Column indices retained under the selection rule, in ranking order.
    selection : TopD or UtilityThreshold
        The rule that produced ``selected``.
    """

    method: str
    utilities: np.ndarray
    ranking: np.ndarray
    selected: np.ndarray
    selection: Selection
    n: int
    p: int

    def ranks(self) -> np.ndarray:
        """1-based rank position of every column: ranks()[j] is the rank of j."""
        pos = np.empty(self.p, dtype=np.int64)
        pos[self.ranking] = np.arange(1, self.p + 1)
        return pos
