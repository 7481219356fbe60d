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

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import Dataset
from .errors import InvalidInput, _is_int, _is_real, check_seed

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
    """Fully resolved simulation settings: a value for each parameter the
    design reads (the keys of its defaults), None for every other one."""

    id: str
    n: int
    p: int
    rho0: float
    w0: float | None = None  # None: 0.95 in S cases 2-4, 1.0 otherwise
    error: str | None = None
    r2: float | None = None
    case: int | None = None

    def __post_init__(self):
        design = _design(self.id)
        if self.w0 is None:
            object.__setattr__(self, "w0",
                               0.95 if self.case in (2, 3, 4) else 1.0)
        reads = design.defaults
        for key, kind in _PARAMS.items():
            value = getattr(self, key)
            if (value is None) == (key in reads):
                verb = "needs" if key in reads else "does not read"
                raise InvalidInput(f"scenario {self.id} {verb} '{key}'; it "
                                   f"reads {', '.join(reads)}")
            typed = (_is_int(value) if kind is int else _is_real(value)
                     if kind is float else isinstance(value, kind))
            if value is not None and not typed:
                raise InvalidInput(f"scenario parameter '{key}' must be of "
                                   f"type {kind.__name__}, got {value!r}")
        if self.n < 2 or self.p <= max(design.active):
            raise InvalidInput(f"scenario {self.id} needs n >= 2 and "
                               f"p > {max(design.active)}")
        _require_weight(self.w0)
        _COVARIATE_CONSTANTS[design.covariates](self.rho0)
        if self.error is not None:
            _error_sampler(self.error)
        if self.r2 is not None:
            _calibrated_theta(self.r2, self.rho0)
        if self.case not in (None, 1, 2, 3, 4):
            raise InvalidInput("contamination case must be in 1..4")
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
    ``case``.  ``#`` starts a comment; blank lines are ignored.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"config line {lineno}: expected 'key = value'")
        key, _, val = (part.strip() for part in line.partition("="))
        try:  # make_scenario rejects an unknown key
            values[key] = _PARAMS.get(key, str)(val)
        except ValueError:
            raise InvalidInput(
                f"config value for '{key}' is not a {_PARAMS[key].__name__}"
            ) from None
    if "scenario" not in values:
        raise InvalidInput("config is missing the 'scenario' key")
    return make_scenario(values.pop("scenario"), **values)


def active_set(scenario: Scenario) -> np.ndarray:
    return np.asarray(_DESIGNS[scenario.id].active, dtype=np.int64)


# ---------------------------------------------------------------------------
# low-level draws
# ---------------------------------------------------------------------------

def _error_sampler(family: str):
    if family not in _ERRORS:
        raise InvalidInput(f"unknown error family '{family}'; valid: "
                           f"{', '.join(ERROR_FAMILIES)}")
    return _ERRORS[family]


def draw_error(family: str, size, rng: np.random.Generator) -> np.ndarray:
    """Sample one of the named error families (`ERROR_FAMILIES`)."""
    return _error_sampler(family)(size, rng)


def _ar1_scale(rho0: float) -> float:
    """Innovation scale sqrt(1 - rho0^2) of the stationary AR(1)."""
    if not abs(rho0) < 1:
        raise InvalidInput(f"AR(1) parameter rho0 must satisfy |rho0| < 1, "
                           f"got {rho0}")
    return math.sqrt(1.0 - rho0 * rho0)


def gen_ar1_gaussian(n: int, p: int, rho0: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Rows i.i.d. centered Gaussian with covariance rho0**|i-j|.

    Sampled exactly through the AR(1) recursion across columns.
    """
    scale = _ar1_scale(rho0)
    xi = rng.standard_normal((n, p))
    x = np.empty((n, p))
    x[:, 0] = xi[:, 0]
    for j in range(1, p):
        x[:, j] = rho0 * x[:, j - 1] + scale * xi[:, j]
    return x


def _require_weight(w0: float):
    if not 0.0 < w0 <= 1.0:
        raise InvalidInput(f"mixing weight w0 must be in (0, 1], got {w0}")


def gen_contaminated(x0: np.ndarray, w0: float, noise_family: str,
                     rng: np.random.Generator) -> np.ndarray:
    """Weighted sum ``w0*x0 + (1-w0)*noise``; ``w0 == 1`` returns a copy."""
    _require_weight(w0)
    if w0 == 1.0:
        return x0.copy()
    noise = draw_error(noise_family, x0.shape, rng)
    return w0 * x0 + (1.0 - w0) * noise


def _uniform_mix_weight(rho0: float) -> float:
    """t = sqrt(rho0 / (1 - rho0)), which solves corr = t^2/(1+t^2) = rho0
    for the shared-uniform mix; rho0 must be in [0, 1)."""
    if not 0.0 <= rho0 < 1.0:
        raise InvalidInput(f"equicorrelation rho0 must be in [0, 1), "
                           f"got {rho0}")
    return math.sqrt(rho0 / (1.0 - rho0))


def gen_equicorrelated_uniform(n: int, p: int, rho0: float,
                               rng: np.random.Generator) -> np.ndarray:
    """Columns (T_j + t*U)/(1+t) with T_j, U iid uniform(0,1); pairwise
    correlation rho0."""
    t = _uniform_mix_weight(rho0)
    tj = rng.random((n, p))
    u = rng.random((n, 1))
    return (tj + t * u) / (1.0 + t)


def _exposure_weights(rho0: float, corr_xz: float) -> tuple[float, float]:
    """(t1, t2) of `gen_exposure_correlated`: U1 has variance 1/12, so
    t1 = sqrt(12) t with t the uniform mix's weight, and corr(x0_j, z) =
    sqrt(rho0) t2 / sqrt(1 + t2^2) gives t2 = s / sqrt(1 - s^2) for
    s = corr_xz / sqrt(rho0) < 1."""
    t1 = math.sqrt(12.0) * _uniform_mix_weight(rho0)
    if corr_xz == 0.0:
        return t1, 0.0
    sup = math.sqrt(rho0)
    if not 0.0 < corr_xz < sup:
        raise InvalidInput(
            f"corr(x, z) target {corr_xz} is infeasible: it must lie in "
            f"[0, sqrt(rho0)) = [0, {sup:.4f}) for rho0 = {rho0}"
        )
    s = corr_xz / sup
    return t1, s / math.sqrt(1.0 - s * s)


def gen_exposure_correlated(n: int, p: int, rho0: float,
                            target_corr_xz: float,
                            rng: np.random.Generator):
    """Latent covariates plus an exposure sharing one uniform factor.

    ``x0[:, j] = (T_j + t1*U1)/(1 + t1)`` with standard normal T_j and
    ``z = (U2 + t2*U1)/(1 + t2)``; t1 and t2 make the covariate
    equicorrelation rho0 and corr(x0_j, z), at most sqrt(rho0), the target.
    """
    t1, t2 = _exposure_weights(rho0, target_corr_xz)
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


# E6's target corr(x0_j, z)
_CORR_XZ = 0.4

# each covariate process's closed-form constants; every call checks rho0
_COVARIATE_CONSTANTS = {
    "ar1": _ar1_scale,
    "uniform": _uniform_mix_weight,
    "exposure": lambda rho0: _exposure_weights(rho0, _CORR_XZ),
}


@dataclass(frozen=True)
class _Design:
    """One simulation design (see the module docstring)."""

    defaults: dict  # the published settings of the parameters it reads
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
_S = dict(n=200, p=1000, rho0=0.4, w0=None, case=1)  # w0: by case
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


def _calibrated_theta(r2: float, rho0: float) -> float:
    """E4's signal scale theta, from theta^2 Var(mu0) = 3 r2 / (1 - r2): 3 is
    the t(3) error's variance, the documented proxy for every error family.
    For mu0 = 2 e^z x1 + 5 (2z-1)^2 e^x2 + 3 sin(2 pi z) x3^2, x the AR(1)
    Gaussian (corr(x1, x2) = rho0) and z ~ U(0, 1), Var(mu0) is exact: with
    E e^2z = (e^2-1)/2, E (2z-1)^4 = 1/5, E sin^2(2 pi z) = 1/2, E x^4 = 3,
    E e^2x = e^2, E e^z (2z-1)^2 = 5e-13, E x1 e^x2 = rho0 sqrt(e) (Stein's
    lemma), E mu0 = 5 sqrt(e) / 3 and both cross terms with x3^2 0 by
    symmetry, it is 2(e^2-1) + 5e^2 + 27/2 + 20 rho0 sqrt(e) (5e-13) - 25e/9.
    """
    if not 0.0 < r2 < 1.0:
        raise InvalidInput(f"target variance ratio r2 must be in (0, 1), "
                           f"got {r2}")
    e = math.e
    var_mu0 = (2.0 * (e * e - 1.0) + 5.0 * e * e + 13.5 - 25.0 * e / 9.0
               + 20.0 * rho0 * math.sqrt(e) * (5.0 * e - 13.0))
    return math.sqrt(3.0 * r2 / (1.0 - r2) / var_mu0)


def simulate(scenario: Scenario, seed) -> SimDataset:
    """Generate one dataset for a scenario.

    ``seed`` is an integer >= 0 or a ``numpy.random.SeedSequence``.  The
    draw order is fixed: latent covariates, exposure, contamination noise,
    response error.
    """
    if not isinstance(seed, np.random.SeedSequence):
        check_seed(seed)
        seed = np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.Philox(seed))
    design = _DESIGNS[scenario.id]
    n, p, rho0 = scenario.n, scenario.p, scenario.rho0
    if design.covariates == "exposure":
        x0, z = gen_exposure_correlated(n, p, rho0, _CORR_XZ, rng)
    else:
        gen = (gen_ar1_gaussian if design.covariates == "ar1"
               else gen_equicorrelated_uniform)
        x0 = gen(n, p, rho0, rng)
        z = rng.random(n) if design.draws_z else None
    x = gen_contaminated(x0, scenario.w0,
                         _CASE_NOISE.get(scenario.case, "cauchy"), rng)
    y = gen_response(scenario, x0, z, rng)
    dataset = Dataset(y=y, x=x, z=z)
    return SimDataset(dataset=dataset, active=active_set(scenario),
                      scenario=scenario)


def gen_response(scenario: Scenario, x0: np.ndarray, z: np.ndarray | None,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw the response for a scenario given latent covariates (and the
    exposure for the exposure-adjusted designs): deterministic part plus an
    error draw, or a Bernoulli/Poisson draw through the scenario's link."""
    sid = scenario.id
    theta = (1.0 if scenario.r2 is None
             else _calibrated_theta(scenario.r2, scenario.rho0))
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
