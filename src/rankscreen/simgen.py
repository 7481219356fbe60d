"""Seeded data generators for the benchmark scenarios.

Each scenario id names one simulation design, stated once in `_DESIGNS`.
Every design observes ``w0 * x0 + (1 - w0) * noise`` for its latent
covariates x0; the noise is Cauchy, or t(3), Cauchy / 3 and N(5, 1) in S
cases 2, 3 and 4, where ``w0`` defaults to 0.95 (1.0 in case 1).
Generators are pure functions of (scenario, seed), driven by a
counter-based Philox stream, so identical inputs give bit-identical data.

Scenario ids
------------
``E1``              linear model, AR(1) Gaussian latent covariates,
                    Cauchy response error.
``E2b1 .. E2b4``    four (non)linear models on the same covariate process.
``E3``              additive nonparametric model, equicorrelated uniform
                    covariates, four selectable error families.
``E4``              exposure-modulated model with signal strength calibrated
                    to a target variance-explained ratio.
``E5d1 .. E5d3``    exposure-modulated models on contaminated covariates.
``E6``              exposure correlated with the covariates.
``S1c1 .. S4c4``    Bernoulli / Poisson responses; the suffix ``c1``-``c4``
                    is the contamination case (``case`` overrides it).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import Dataset
from .errors import InvalidInput

__all__ = [
    "Scenario",
    "SimDataset",
    "make_scenario",
    "scenario_from_config",
    "list_scenario_ids",
    "simulate",
    "gen_ar1_gaussian",
    "gen_contaminated",
    "gen_equicorrelated_uniform",
    "gen_exposure_correlated",
    "gen_response",
    "response_mean",
    "draw_error",
    "active_set",
]

_PILOT_SEED = 20231115
_PILOT_SIZE = 100_000

# error families, each a draw of `size` from `rng`; Cauchy draws go through
# the inverse CDF tan(pi*(U - 1/2)), a transform of one uniform stream
_ERRORS = {
    "cauchy": lambda size, rng: np.tan(np.pi * (rng.random(size) - 0.5)),
    "cauchy3": lambda size, rng: _ERRORS["cauchy"](size, rng) / 3.0,
    "t3": lambda size, rng: rng.standard_t(3, size),
    "normal174": lambda size, rng: math.sqrt(1.74) * rng.standard_normal(size),
    "mixnormal": lambda size, rng: (np.where(rng.random(size) < 0.5, -2.0, 2.0)
                                    + rng.standard_normal(size)),
    "n51": lambda size, rng: 5.0 + rng.standard_normal(size),
}
ERROR_FAMILIES = tuple(_ERRORS)

# contamination noise per discrete-response case; "cauchy" otherwise
_CASE_NOISE = {2: "t3", 3: "cauchy3", 4: "n51"}

# the overridable scenario parameters and their types
_PARAMS = {"n": int, "p": int, "rho0": float, "w0": float, "error": str,
           "r2": float, "case": int}


@dataclass(frozen=True)
class Scenario:
    """Fully resolved simulation settings."""

    id: str
    n: int
    p: int
    rho0: float
    w0: float | None = None  # None: 0.95 in S cases 2-4, 1.0 otherwise
    error: str = "cauchy"
    r2: float | None = None
    case: int | None = None

    def __post_init__(self):
        design = _design(self.id)
        if self.w0 is None:
            object.__setattr__(self, "w0",
                               0.95 if self.case in (2, 3, 4) else 1.0)
        if self.n < 2 or self.p < 1:
            raise InvalidInput("scenario needs n >= 2 and p >= 1")
        if self.p <= max(design.active):
            raise InvalidInput(
                f"scenario {self.id} needs p > {max(design.active)}"
            )
        if self.error not in ERROR_FAMILIES:
            raise InvalidInput(
                f"unknown error family '{self.error}'; valid: "
                f"{', '.join(ERROR_FAMILIES)}"
            )
        if design.family is None and self.case is not None:
            raise InvalidInput(f"scenario {self.id} has no contamination "
                               "case; case applies to S1-S4")
        if design.family is not None and self.case not in (1, 2, 3, 4):
            raise InvalidInput("discrete scenarios need case in 1..4")
        if self.case == 1 and self.w0 < 1.0:
            raise InvalidInput("case 1 is uncontaminated: it needs w0 = 1")

    @property
    def needs_exposure(self) -> bool:
        design = _DESIGNS[self.id]
        return design.covariates == "exposure" or design.draws_z


@dataclass(frozen=True)
class SimDataset:
    """Generated data plus the ground-truth active index set (0-based)."""

    dataset: Dataset
    active: np.ndarray
    scenario: Scenario


def _design(sid: str) -> _Design:
    if sid not in _DESIGNS:
        raise InvalidInput(f"unknown scenario '{sid}'; valid ids: "
                           f"{', '.join(list_scenario_ids())}")
    return _DESIGNS[sid]


def list_scenario_ids() -> list[str]:
    ids = []
    for sid, design in _DESIGNS.items():
        ids.extend([sid] if design.family is None
                   else [f"{sid}c{c}" for c in (1, 2, 3, 4)])
    return ids


_S_CASE_RE = re.compile(r"^(S[1-4])c([1-4])$")


def make_scenario(scenario_id: str, **overrides) -> Scenario:
    """Resolve a scenario id (e.g. ``"E1"`` or ``"S3c1"``, whose suffix is
    the case) with overrides; an override of None keeps the default."""
    sid = scenario_id.strip()
    m = _S_CASE_RE.match(sid)
    if m:
        sid = m.group(1)
        if overrides.get("case") is None:
            overrides["case"] = int(m.group(2))
    params = dict(_design(sid).defaults)
    for key, value in overrides.items():
        if key not in _PARAMS:
            raise InvalidInput(f"unknown scenario parameter '{key}'")
        if value is not None:
            params[key] = value
    return Scenario(id=sid, **params)


def scenario_from_config(text: str) -> Scenario:
    """Parse a plain-text ``key = value`` scenario definition.

    Recognized keys: ``scenario`` (required id) and the parameters of
    `make_scenario`: ``n``, ``p``, ``rho0``, ``w0``, ``error``, ``r2``,
    ``case``.  Lines starting with ``#`` and blank lines are ignored.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInput(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    if "scenario" not in values:
        raise InvalidInput("config is missing the 'scenario' key")
    sid = values.pop("scenario")
    overrides: dict = {}
    for key, val in values.items():
        if key not in _PARAMS:
            raise InvalidInput(f"unknown scenario parameter '{key}'")
        try:
            overrides[key] = _PARAMS[key](val)
        except ValueError:
            raise InvalidInput(
                f"config value for '{key}' is not a {_PARAMS[key].__name__}"
            ) from None
    return make_scenario(sid, **overrides)


def active_set(scenario: Scenario) -> np.ndarray:
    return np.asarray(_DESIGNS[scenario.id].active, dtype=np.int64)


# ---------------------------------------------------------------------------
# low-level draws
# ---------------------------------------------------------------------------

def draw_error(family: str, size, rng: np.random.Generator) -> np.ndarray:
    """Sample one of the named error families (`ERROR_FAMILIES`)."""
    if family not in _ERRORS:
        raise InvalidInput(f"unknown error family '{family}'")
    return _ERRORS[family](size, rng)


def gen_ar1_gaussian(n: int, p: int, rho0: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Rows i.i.d. centered Gaussian with covariance rho0**|i-j|.

    Sampled exactly through the AR(1) recursion across columns.
    """
    if not abs(rho0) < 1:
        raise InvalidInput("AR(1) parameter must satisfy |rho0| < 1")
    xi = rng.standard_normal((n, p))
    x = np.empty((n, p))
    x[:, 0] = xi[:, 0]
    scale = math.sqrt(1.0 - rho0 * rho0)
    for j in range(1, p):
        x[:, j] = rho0 * x[:, j - 1] + scale * xi[:, j]
    return x


def gen_contaminated(x0: np.ndarray, w0: float, noise_family: str,
                     rng: np.random.Generator) -> np.ndarray:
    """Weighted sum ``w0*x0 + (1-w0)*noise``; ``w0 == 1`` returns a copy."""
    if not 0.0 < w0 <= 1.0:
        raise InvalidInput("mixing weight w0 must be in (0, 1]")
    if w0 == 1.0:
        return x0.copy()
    noise = draw_error(noise_family, x0.shape, rng)
    return w0 * x0 + (1.0 - w0) * noise


def _bisect_increasing(func, target, lo, hi, iters: int = 200) -> float:
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if func(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _uniform_mix_weight(rho0: float) -> float:
    """t solving corr = t^2/(1+t^2) = rho0 for the shared-uniform mix."""
    if rho0 == 0.0:
        return 0.0
    return _bisect_increasing(lambda t: t * t / (1.0 + t * t), rho0, 0.0,
                              math.sqrt(rho0 / (1.0 - rho0)) + 1.0)


def gen_equicorrelated_uniform(n: int, p: int, rho0: float,
                               rng: np.random.Generator) -> np.ndarray:
    """Columns (T_j + t*U)/(1+t) with T_j, U iid uniform(0,1); pairwise
    correlation rho0."""
    if not 0.0 <= rho0 < 1.0:
        raise InvalidInput("equicorrelation must be in [0, 1)")
    t = _uniform_mix_weight(rho0)
    tj = rng.random((n, p))
    u = rng.random((n, 1))
    return (tj + t * u) / (1.0 + t)


def gen_exposure_correlated(n: int, p: int, rho0: float,
                            target_corr_xz: float,
                            rng: np.random.Generator):
    """Latent covariates plus an exposure sharing one uniform factor.

    ``x0[:, j] = (T_j + t1*U1)/(1 + t1)`` with standard normal T_j and
    ``z = (U2 + t2*U1)/(1 + t2)``; t1, t2 are solved by bisection so the
    covariate equicorrelation is rho0 and corr(x0_j, z) hits the target.
    The attainable supremum of corr(x0_j, z) is sqrt(rho0).
    """
    if not 0.0 <= rho0 < 1.0:
        raise InvalidInput("equicorrelation must be in [0, 1)")
    if target_corr_xz < 0.0:
        raise InvalidInput("target covariate-exposure correlation must be >= 0")
    if rho0 == 0.0:
        if target_corr_xz != 0.0:
            raise InvalidInput(
                "rho0 = 0 forces zero covariate-exposure correlation"
            )
        t1 = 0.0
        t2 = 0.0
    else:
        # corr(x_j, x_k) = (t1^2/12) / (1 + t1^2/12)
        t1 = _bisect_increasing(
            lambda t: (t * t / 12.0) / (1.0 + t * t / 12.0), rho0, 0.0,
            math.sqrt(12.0 * rho0 / (1.0 - rho0)) + 1.0)
        sup = math.sqrt(rho0)
        if target_corr_xz >= sup * (1.0 - 1e-9):
            raise InvalidInput(
                f"corr(x, z) target {target_corr_xz} is infeasible; "
                f"supremum for rho0={rho0} is {sup:.4f}"
            )

        def corr_xz(t2_):
            num = t1 * t2_ / 12.0
            den = math.sqrt((1.0 + t1 * t1 / 12.0) * (1.0 + t2_ * t2_) / 12.0)
            return num / den

        if target_corr_xz == 0.0:
            t2 = 0.0
        else:
            hi = 1.0
            while corr_xz(hi) < target_corr_xz:
                hi *= 2.0
            t2 = _bisect_increasing(corr_xz, target_corr_xz, 0.0, hi)
    t_mat = rng.standard_normal((n, p))
    u1 = rng.random((n, 1))
    u2 = rng.random(n)
    x0 = (t_mat + t1 * u1) / (1.0 + t1)
    z = (u2 + t2 * u1[:, 0]) / (1.0 + t2)
    return x0, z


# ---------------------------------------------------------------------------
# response models
# ---------------------------------------------------------------------------

def _g2(u):
    return (3.0 * u - 1.0) ** 2


def _g3(u):
    s = np.sin(2.0 * np.pi * u)
    return 2.0 * s / (2.0 - s)


def _g4(u):
    s = np.sin(2.0 * np.pi * u)
    c = np.cos(2.0 * np.pi * u)
    return 0.1 * s + 0.2 * c + 0.3 * s ** 2 + 0.4 * c ** 3 + 0.5 * s ** 3


@dataclass(frozen=True)
class _Design:
    """One simulation design (see the module docstring)."""

    defaults: dict  # the published settings
    active: tuple  # 0-based active columns
    covariates: str  # "ar1", "uniform" or "exposure" (E6's joint x0 and z)
    draws_z: bool  # z ~ U(0, 1) is drawn after the covariates
    mean: Callable  # (x0, z) -> response mean, or the link argument
    family: str | None = None  # "bernoulli" or "poisson"


def _defaults(n, rho0, w0, error, **extra):
    return dict(n=n, p=1000, rho0=rho0, w0=w0, error=error, **extra)


def _s13_mean(x, z):
    return 2.0 * x[:, 0] + 1.5 * x[:, 1] + 2.0 * x[:, 99] + 2.0 * x[:, 399]


def _e6_mean(x, z):
    s = np.sin(2.0 * np.pi * z)
    return (3.0 * x[:, 0] + 4.0 * np.sqrt(z + 0.5) * x[:, 1]
            + 2.0 * np.exp(z) * x[:, 2] + 6.0 * s * x[:, 3] / (2.0 - s))


# E5d2 observes a transform of its response (see `gen_response`)
_E5 = _Design(
    _defaults(200, 0.8, 0.8, "cauchy3"), (0, 1, 2), "ar1", True,
    lambda x, z: (2.0 * z * x[:, 0] + 5.0 * (2.0 * z - 1.0) ** 2 * x[:, 1]
                  + 3.0 * np.sin(2.0 * np.pi * z) * x[:, 2]))
_S = dict(n=200, p=1000, rho0=0.4, case=1)
_S_ACTIVE = (0, 1, 99, 399)

_DESIGNS = {
    "E1": _Design(
        _defaults(100, 0.8, 0.8, "cauchy"), (0, 1, 2, 3, 4), "ar1", False,
        lambda x, z: (3.0 * x[:, 0] + 3.0 * x[:, 1] + 2.0 * x[:, 2]
                      + 2.0 * x[:, 3] + 2.0 * x[:, 4])),
    "E2b1": _Design(
        _defaults(100, 0.5, 0.8, "cauchy"), (0, 1, 9), "ar1", False,
        lambda x, z: (5.0 * x[:, 0] * (x[:, 0] < 0)
                      + 5.0 * x[:, 1] * (x[:, 1] > 0)
                      + 5.0 * np.sin(x[:, 9]))),
    # model coefficients beta_1..beta_4 default to one
    "E2b2": _Design(
        _defaults(200, 0.8, 0.8, "cauchy"), (0, 1, 2, 3), "ar1", False,
        lambda x, z: 5.0 * (x[:, 0] + x[:, 1] + x[:, 2] + x[:, 3])),
    "E2b3": _Design(
        _defaults(200, 0.8, 0.8, "cauchy"), (0, 1, 2, 3), "ar1", False,
        lambda x, z: (5.0 * x[:, 0] ** 2 + 5.0 * x[:, 1] * x[:, 2]
                      + 5.0 * (x[:, 3] > 0))),
    "E2b4": _Design(
        _defaults(200, 0.5, 0.8, "cauchy"), (0, 1, 2, 3), "ar1", False,
        lambda x, z: (np.exp(3.0 * np.sin(x[:, 0])) + 2.0 * np.exp(x[:, 1])
                      + 3.0 * (x[:, 2] > 0)
                      + np.log(4.0 * np.abs(x[:, 3]) + 0.5))),
    "E3": _Design(
        _defaults(200, 0.4, 1.0, "cauchy3"), (0, 1, 2, 3), "uniform", False,
        lambda x, z: (6.0 * x[:, 0] + 6.0 * _g2(x[:, 1])
                      + 3.0 * _g3(x[:, 2]) + 6.0 * _g4(x[:, 3]))),
    "E4": _Design(
        _defaults(200, 0.8, 1.0, "cauchy3", r2=0.3), (0, 1, 2), "ar1", True,
        lambda x, z: (2.0 * np.exp(z) * x[:, 0]
                      + 5.0 * (2.0 * z - 1.0) ** 2 * np.exp(x[:, 1])
                      + 3.0 * np.sin(2.0 * np.pi * z) * x[:, 2] ** 2)),
    "E5d1": _E5,
    "E5d2": _E5,
    "E5d3": _Design(
        _defaults(200, 0.8, 0.8, "cauchy3"), (1, 99, 399, 599), "ar1", True,
        lambda x, z: (2.0 * (z > 0.4) * x[:, 1] + (1.0 + z) * x[:, 99]
                      + (2.0 - 3.0 * z) ** 2 * x[:, 399]
                      + np.exp(z / (1.0 + z)) * x[:, 599])),
    "E6": _Design(_defaults(200, 0.4, 0.8, "cauchy3"), (0, 1, 2, 3),
                  "exposure", False, _e6_mean),
    "S1": _Design(_S, _S_ACTIVE, "ar1", False, _s13_mean, "bernoulli"),
    "S2": _Design(
        _S, _S_ACTIVE, "ar1", False,
        lambda x, z: (2.0 * x[:, 0] + 2.0 * (x[:, 1] + 0.5) ** 2
                      + 3.0 * np.exp(-x[:, 99])
                      + 6.0 * np.sin(np.pi * x[:, 399])), "bernoulli"),
    "S3": _Design(_S, _S_ACTIVE, "ar1", False, _s13_mean, "poisson"),
    "S4": _Design(
        _S, _S_ACTIVE, "uniform", False,
        lambda x, z: (1.5 * x[:, 0] + 0.5 * (x[:, 1] + 0.5) ** 2
                      + 1.5 * np.exp(x[:, 99] ** 2)
                      + 1.5 * np.sin(np.pi * x[:, 399])), "poisson"),
}


def response_mean(scenario_id: str, x0: np.ndarray, z: np.ndarray | None = None,
                  theta: float = 1.0) -> np.ndarray:
    """Deterministic response part (or the link argument for the discrete
    scenarios), evaluated on the latent covariates and scaled by ``theta``
    (E4's calibrated signal strength)."""
    return theta * _design(scenario_id).mean(x0, z)


@functools.lru_cache(maxsize=None)
def _calibrated_theta(r2: float, error_family: str) -> float:
    """Signal scale for the exposure-modulated model so the explained
    variance ratio hits the target.

    The Cauchy-type error has no variance; its scale enters through the
    variance of the matched t(3) error, a documented proxy.  The latent-mean
    variance comes from a 100k pilot draw under a fixed internal seed and the
    scale solves theta^2 * var(mu0) = r2/(1-r2) * var_eps by bisection;
    results are cached per (r2, family).
    """
    if not 0.0 < r2 < 1.0:
        raise InvalidInput("target variance ratio must be in (0, 1)")
    var_eps = 3.0
    target = r2 / (1.0 - r2) * var_eps
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(_PILOT_SEED)))
    x0 = gen_ar1_gaussian(_PILOT_SIZE, 3, 0.8, rng)
    z = rng.random(_PILOT_SIZE)
    mu0 = response_mean("E4", x0, z, theta=1.0)
    v0 = float(np.var(mu0))
    hi = 2.0 * math.sqrt(target / v0) + 1.0
    return _bisect_increasing(lambda t: t * t * v0, target, 0.0, hi)


def simulate(scenario: Scenario, seed) -> SimDataset:
    """Generate one dataset for a scenario.

    ``seed`` is an integer or a ``numpy.random.SeedSequence``.  The draw
    order is fixed: latent covariates, exposure, contamination noise,
    response error.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.Philox(seed))
    design = _DESIGNS[scenario.id]
    n, p, rho0 = scenario.n, scenario.p, scenario.rho0
    if design.covariates == "exposure":
        x0, z = gen_exposure_correlated(n, p, rho0, 0.4, rng)
    else:
        gen = (gen_ar1_gaussian if design.covariates == "ar1"
               else gen_equicorrelated_uniform)
        x0 = gen(n, p, rho0, rng)
        z = rng.random(n) if design.draws_z else None
    x = gen_contaminated(x0, scenario.w0,
                         _CASE_NOISE.get(scenario.case, "cauchy"), rng)
    y = gen_response(scenario, x0, z, rng)
    dataset = Dataset(y=y, x=x, z=z, z_name="z" if z is not None else None)
    return SimDataset(dataset=dataset, active=active_set(scenario),
                      scenario=scenario)


def gen_response(scenario: Scenario, x0: np.ndarray, z: np.ndarray | None,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw the response for a scenario given latent covariates (and the
    exposure for the exposure-adjusted designs): deterministic part plus an
    error draw, or a Bernoulli/Poisson draw through the scenario's link."""
    sid = scenario.id
    theta = 1.0
    if sid == "E4":
        if scenario.r2 is None:
            raise InvalidInput("scenario E4 needs a target r2")
        theta = _calibrated_theta(scenario.r2, scenario.error)
    mu = response_mean(sid, x0, z, theta=theta)
    family = _DESIGNS[sid].family
    if family == "bernoulli":
        prob = 1.0 / (1.0 + np.exp(-mu))
        return (rng.random(mu.shape[0]) < prob).astype(float)
    if family == "poisson":
        lam = np.exp(mu)
        if not np.all(np.isfinite(lam)):
            raise InvalidInput("Poisson rate overflowed; check the scenario")
        return rng.poisson(lam).astype(float)
    eps = draw_error(scenario.error, mu.shape[0], rng)
    if sid == "E5d2":
        # invert log(0.5*exp(1.25*y) - 1) = mu + eps, stably
        return 0.8 * (math.log(2.0) + np.logaddexp(mu + eps, 0.0))
    return mu + eps
