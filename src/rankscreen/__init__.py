"""Rank-based robust (partial) correlation screening for ultrahigh
dimensional data, plus the simulation harness that benchmarks it."""

from .baselines import kendall_sis, kendall_tau_b, pearson_sis
from .bench import MetricsReport, mms, rsd, run_replications
from .dataset import Dataset
from .errors import (
    DegenerateEvaluation,
    HarnessError,
    InvalidInput,
    OutOfSupport,
    RankscreenError,
    SingularDesign,
)
from .rc_screen import (
    BootstrapTestResult,
    PointwiseCi,
    rc_screen,
    rc_utilities,
    rc_utility,
    robust_corr,
    robust_corr_ci,
    wild_bootstrap_test,
)
from .report import ScreeningReport, TopD, UtilityThreshold, default_top_d
from .rpc_screen import (
    ResidualMatrix,
    residualize,
    rpc_screen,
    rpc_utility,
)
from .simgen import Scenario, SimDataset, make_scenario, simulate
from .spline import (
    BasisConfig,
    SplineBasis,
    SplineFit,
    basis_build,
    basis_eval,
    fit_l1,
    fit_l2,
    predict,
)

__version__ = "0.1.0"
