"""Replication harness: run screeners over many simulated datasets and
aggregate the evaluation metrics.

Metrics per method: the minimum model size (largest rank among the active
predictors, abbreviated MMS), its robust spread IQR/1.349 across
replications, the median rank of each active predictor, and the proportion
of replications in which every active predictor lands inside the screening
budget.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .baselines import kendall_sis, pearson_sis
from .dataset import Dataset
from .empirical import quantiles
from .errors import HarnessError, InvalidInput, _is_int, check_seed
from .rc_screen import rc_screen
from .report import (
    SCHEMA_VERSION,
    ScreeningReport,
    Selection,
    TopD,
    default_top_d,
)
from .rpc_screen import rpc_screen
from .simgen import Scenario, simulate
from .spline import BasisConfig

__all__ = [
    "Method",
    "METHODS",
    "METHOD_NAMES",
    "get_method",
    "mms",
    "rsd",
    "MethodMetrics",
    "MetricsReport",
    "run_replications",
]

RSD_SCALE = 1.349  # normal-consistent IQR scale
MAX_FAILURE_FRACTION = 0.05  # share of replications that may fail

Screener = Callable[[Dataset, Selection], ScreeningReport]


class Method(NamedTuple):
    """``screen(dataset, selection, basis_config)`` and its exposure need."""

    screen: Callable[[Dataset, Selection, BasisConfig], ScreeningReport]
    needs_exposure: bool = False


# The screeners are looked up in this module when called, not bound here,
# so a wrapper installed on a module attribute (a tracer) sees every call.
METHODS = {
    "rc": Method(lambda ds, sel, basis: rc_screen(ds, sel)),
    "rpc-l2": Method(lambda ds, sel, basis: rpc_screen(
        ds, loss="l2", selection=sel, basis_config=basis), True),
    "rpc-l1": Method(lambda ds, sel, basis: rpc_screen(
        ds, loss="l1", selection=sel, basis_config=basis), True),
    "pearson": Method(lambda ds, sel, basis: pearson_sis(ds, sel)),
    "kendall": Method(lambda ds, sel, basis: kendall_sis(ds, sel)),
}
METHOD_NAMES = tuple(METHODS)


def get_method(name: str,
               basis_config: BasisConfig = BasisConfig()) -> Screener:
    """Resolve a CLI method name to a screener callable."""
    if name not in METHODS:
        raise InvalidInput(f"unknown method '{name}'; valid: "
                           f"{', '.join(METHOD_NAMES)}")
    screen = METHODS[name].screen
    return lambda ds, sel: screen(ds, sel, basis_config)


def mms(ranking, active) -> int:
    """Smallest ranking prefix containing all active columns.

    Equals the maximum 1-based position among the active column ids.
    """
    ranking = np.asarray(ranking)
    active = np.asarray(list(active))
    if active.size == 0:
        raise InvalidInput("active set is empty")
    pos = {int(col): i + 1 for i, col in enumerate(ranking)}
    try:
        return max(pos[int(j)] for j in active)
    except KeyError as exc:
        raise InvalidInput(f"active column {exc} not present in the ranking") \
            from None


def rsd(values) -> float:
    """Robust spread IQR/1.349 with type-7 quantile interpolation."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise InvalidInput("cannot take the spread of an empty vector")
    q1, q3 = quantiles(arr, [0.25, 0.75])
    return float((q3 - q1) / RSD_SCALE)


@dataclass(frozen=True)
class MethodMetrics:
    """Aggregated screening metrics for one method."""

    method: str
    median_mms: float
    rsd_mms: float
    median_ranks: list[float]
    proportion: float
    mms_values: np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    """Replication summary for one scenario across methods."""

    scenario: dict
    n_reps: int
    n_failures: int
    d_n: int
    active: list[int]
    per_method: list[MethodMetrics] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "n_reps": self.n_reps,
            "n_failures": self.n_failures,
            "d_n": self.d_n,
            "active_columns": [int(a + 1) for a in self.active],
            "methods": [
                {
                    "method": m.method,
                    "median_ranks": [float(r) for r in m.median_ranks],
                    "median_mms": float(m.median_mms),
                    "rsd_mms": float(m.rsd_mms),
                    "proportion": float(m.proportion),
                }
                for m in self.per_method
            ],
        }

    def to_csv_rows(self) -> list[list[str]]:
        header = (["method"]
                  + [f"R_{a + 1}" for a in self.active]
                  + ["MMS", "RSD", "P"])
        rows = [header]
        for m in self.per_method:
            rows.append(
                [m.method]
                + [repr(float(r)) for r in m.median_ranks]
                + [repr(float(m.median_mms)), repr(float(m.rsd_mms)),
                   repr(float(m.proportion))]
            )
        return rows


def run_replications(scenario, methods, n_reps: int, base_seed: int,
                     d_n: int | None = None,
                     basis_config: BasisConfig = BasisConfig()) -> MetricsReport:
    """Run every method on ``n_reps`` independently generated datasets.

    Parameters
    ----------
    scenario : Scenario or callable
        Either a simulation scenario or a callable ``f(seed) -> SimDataset``
        (the seed is a ``numpy.random.SeedSequence``).
    methods : sequence of str
        Names from `METHOD_NAMES`; a repeated name is run and reported
        once, in the order of its first occurrence.
    n_reps : int
        Number of replications.
    base_seed : int
        Replication r uses the child stream ``SeedSequence([base_seed, r])``.
    d_n : int, optional
        Screening budget; default floor(n / ln n) for the generated n.

    Raises
    ------
    InvalidInput
        For a bad ``n_reps``, seed, method or ``d_n``, before any run.
    HarnessError
        If more than ``MAX_FAILURE_FRACTION`` of the replications fail.
    """
    if not _is_int(n_reps) or n_reps < 1:
        raise InvalidInput(
            f"n_reps must be an integer >= 1, got {n_reps!r}")
    check_seed(base_seed)
    if not methods:
        raise InvalidInput("need at least one method")
    methods = list(dict.fromkeys(methods))
    screeners = {name: get_method(name, basis_config=basis_config)
                 for name in methods}
    fixed = TopD(d_n) if d_n is not None else None

    if isinstance(scenario, Scenario):
        make = lambda seq: simulate(scenario, seq)  # noqa: E731
        scenario_echo = asdict(scenario)
    else:
        make = scenario
        scenario_echo = {"id": "custom"}

    def one_replication(r: int):
        seq = np.random.SeedSequence([base_seed, r])
        sim = make(seq)
        sel = fixed or TopD(default_top_d(sim.dataset.n))
        ranks = {name: screen(sim.dataset, sel).ranks()[sim.active]
                 for name, screen in screeners.items()}
        return sel.d, sim.active, ranks

    kept: list = []
    errors: list = []
    for r in range(n_reps):
        try:
            kept.append(one_replication(r))
        except Exception as exc:  # noqa: BLE001 - harness counts failures
            errors.append((r, repr(exc)))

    n_failures = len(errors)
    if n_failures > MAX_FAILURE_FRACTION * n_reps:
        detail = "; ".join(f"rep {r}: {msg}" for r, msg in errors[:5])
        raise HarnessError(
            f"{n_failures}/{n_reps} replications failed ({detail})"
        )

    budget = kept[0][0]
    active = kept[0][1]
    per_method = []
    for name in methods:
        rank_matrix = np.array([res[2][name] for res in kept])  # (reps, k)
        mms_values = rank_matrix.max(axis=1).astype(float)
        hit = np.all(rank_matrix <= budget, axis=1)
        per_method.append(MethodMetrics(
            method=name,
            median_mms=float(quantiles(mms_values)),
            rsd_mms=rsd(mms_values),
            median_ranks=quantiles(rank_matrix).tolist(),
            proportion=float(np.mean(hit)),
            mms_values=mms_values,
        ))
    return MetricsReport(
        scenario=scenario_echo,
        n_reps=len(kept),
        n_failures=n_failures,
        d_n=budget,
        active=[int(a) for a in active],
        per_method=per_method,
    )
