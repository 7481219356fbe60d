"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The table criteria replicate the benchmark scenarios at desk
scale with fixed seeds, so every number below is deterministic.
"""

import numpy as np
import pytest

from rankscreen.baselines import kendall_tau_b
from rankscreen.bench import run_replications
from rankscreen.dataset import Dataset
from rankscreen.rc_screen import (
    rc_screen,
    rc_utility,
    robust_corr_ci,
    wild_bootstrap_test,
)
from rankscreen.rpc_screen import residualize, rpc_utility
from rankscreen.simgen import make_scenario
from rankscreen.spline import (
    basis_build,
    design_matrix,
    fit_l1,
    fit_l2,
    l1_objective,
)

from oracles import kendall_tau_oracle, rc_utility_oracle

BASE_SEED = 2024


def _report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_easy_regime_reproduction():
    sc = make_scenario("E1", n=100, p=1000, rho0=0.8)
    rep = run_replications(sc, ["rc"], 50, base_seed=BASE_SEED)
    rc = rep.per_method[0]
    ok = rc.median_mms <= 10 and rc.proportion >= 0.90
    _report(1, ok, f"RC-SIS on E1(100,1000,0.8), N=50: median MMS = "
                   f"{rc.median_mms} (need <= 10), P = {rc.proportion} "
                   f"(need >= 0.90)")


def test_criterion_2_hard_regime_ordering():
    sc = make_scenario("E1", n=100, p=1000, rho0=0.4)
    rep = run_replications(sc, ["rc", "pearson"], 50, base_seed=BASE_SEED)
    rc, pearson = rep.per_method
    ratio = rc.median_mms / pearson.median_mms
    ok = rc.median_mms < pearson.median_mms and ratio <= 0.2
    _report(2, ok, f"E1(100,1000,0.4), N=50: RC-SIS median MMS = "
                   f"{rc.median_mms} vs Pearson-SIS {pearson.median_mms}, "
                   f"ratio = {ratio:.4f} (need <= 0.2)")


def test_criterion_3_exposure_adjusted_reproduction():
    sc = make_scenario("E4", n=200, p=1000, error="cauchy3", r2=0.3)
    rep = run_replications(sc, ["rpc-l2", "rpc-l1"], 30, base_seed=BASE_SEED)
    l2, l1 = rep.per_method
    ok = (l2.median_mms == 3.0 and l1.median_mms == 3.0
          and l2.proportion >= 0.95 and l1.proportion >= 0.95)
    _report(3, ok, f"E4 cauchy3 r2=0.3 (200,1000), N=30: L2 MMS = "
                   f"{l2.median_mms}, P = {l2.proportion}; L1 MMS = "
                   f"{l1.median_mms}, P = {l1.proportion} "
                   f"(need MMS = 3, P >= 0.95)")


def test_criterion_4_robustness_ordering():
    sc = make_scenario("E3", n=400, p=1000, error="cauchy3")
    rep = run_replications(sc, ["rc", "kendall"], 30, base_seed=BASE_SEED)
    rc, kendall = rep.per_method
    ok = (rc.proportion >= 0.8
          and rc.median_mms <= kendall.median_mms + 2)
    _report(4, ok, f"E3 cauchy n=400, N=30: RC-SIS MMS = {rc.median_mms}, "
                   f"P = {rc.proportion} (need >= 0.8); Kendall MMS = "
                   f"{kendall.median_mms} (need RC <= Kendall + 2)")


def test_criterion_5_discrete_response():
    sc = make_scenario("S3c1", n=200, p=1000, rho0=0.4)
    rep = run_replications(sc, ["rc"], 30, base_seed=BASE_SEED)
    rc = rep.per_method[0]
    ok = rc.proportion >= 0.9
    _report(5, ok, f"S3 case 1 (200,1000,0.4), N=30: RC-SIS P = "
                   f"{rc.proportion} (need >= 0.9), median MMS = "
                   f"{rc.median_mms}")


def test_criterion_6_bootstrap_size():
    rejections = 0
    reps = 200
    for r in range(reps):
        rng = np.random.default_rng([555, r])
        y = rng.standard_normal(200)
        x = rng.standard_normal(200)
        res = wild_bootstrap_test(y, x, n_boot=500, alpha=0.05,
                                  seed=int(rng.integers(2 ** 31)))
        rejections += res.reject
    rate = rejections / reps
    ok = 0.02 <= rate <= 0.09
    _report(6, ok, f"wild bootstrap size at n=200, D=500, alpha=0.05 over "
                   f"{reps} reps: {rate} (need in [0.02, 0.09])")


def test_criterion_7_ci_coverage():
    # population indicator correlation of a rho=0.5 bivariate Gaussian at
    # the joint medians: (P(Y<=0, X<=0) - 1/4) / (1/4) = 1/3
    rng = np.random.default_rng(777)
    true_value = 1.0 / 3.0
    rho = 0.5
    covered = 0
    reps = 1000
    for _ in range(reps):
        y = rng.standard_normal(500)
        x = rho * y + np.sqrt(1 - rho ** 2) * rng.standard_normal(500)
        ci = robust_corr_ci(0.0, 0.0, y, x, level=0.95)
        covered += ci.lower <= true_value <= ci.upper
    rate = covered / reps
    ok = 0.92 <= rate <= 0.98
    _report(7, ok, f"95% CI coverage at joint medians, rho=0.5, n=500, "
                   f"{reps} reps: {rate} (need in [0.92, 0.98])")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(88)
    failures = []
    for case in range(100):
        n = int(rng.integers(5, 51))
        if case % 3 == 0:
            y = rng.integers(0, 6, size=n).astype(float)
            x = rng.integers(0, 5, size=n).astype(float)
        else:
            y = rng.standard_normal(n)
            x = rng.standard_normal(n)
        kind = case % 5
        if kind in (0, 1):
            if rc_utility(y, x) != rc_utility_oracle(y, x):
                failures.append((case, "rc_utility"))
        elif kind == 2:
            # residual pairs from an actual exposure fit
            z = rng.random(n)
            ds = Dataset(y=y, x=x[:, None], z=z)
            res = residualize(ds, loss="l2")
            if (rpc_utility(res.eps_y, res.eps_x[:, 0])
                    != rc_utility_oracle(res.eps_y, res.eps_x[:, 0])):
                failures.append((case, "rpc_utility"))
        else:
            tau = kendall_tau_b(y, x)
            oracle = kendall_tau_oracle(list(y), list(x))
            if not (tau == oracle or (np.isnan(tau) and np.isnan(oracle))):
                failures.append((case, "kendall"))
    ok = not failures
    _report(8, ok, f"exact oracle equivalence over 100 random instances "
                   f"(n <= 50): {len(failures)} mismatches {failures[:3]}")


def test_criterion_9_invariance_suite():
    problems = []

    # monotone-transform invariance of RC reports, bit identical
    rng = np.random.default_rng(99)
    y = rng.standard_normal(80)
    x = rng.standard_normal((80, 6))
    x[:, 0] = y + 0.2 * rng.standard_normal(80)
    base = rc_screen(Dataset(y=y, x=x))
    x2 = x.copy()
    x2[:, 2] = np.exp(x2[:, 2])
    x2[:, 4] = x2[:, 4] ** 3
    transformed = rc_screen(Dataset(y=np.exp(y), x=x2))
    if not (np.array_equal(base.utilities, transformed.utilities)
            and np.array_equal(base.ranking, transformed.ranking)
            and np.array_equal(base.selected, transformed.selected)):
        problems.append("monotone invariance")

    # partition of unity to 1e-12
    z = rng.random(300)
    basis = basis_build(z, degree=3, n_basis=7)
    grid = np.linspace(basis.lo, basis.hi, 1500)
    pou_err = np.abs(design_matrix(basis, grid).sum(axis=1) - 1.0).max()
    if pou_err > 1e-12:
        problems.append(f"partition of unity ({pou_err})")

    # normal-equation residual
    w = np.sin(2 * np.pi * z) + rng.standard_normal(300)
    l2 = fit_l2(basis, z, w)
    b = design_matrix(basis, z)
    ortho = np.abs(b.T @ (w - b @ l2.coef)).max()
    if ortho > 1e-8 * np.linalg.norm(w):
        problems.append(f"normal equations ({ortho})")

    # L1 objective no worse than the L2 solution's
    w_heavy = np.sin(2 * np.pi * z) + np.tan(np.pi * (rng.random(300) - 0.5))
    l2h = fit_l2(basis, z, w_heavy)
    l1h = fit_l1(basis, z, w_heavy)
    gap = (l1_objective(basis, l1h.coef, z, w_heavy)
           - l1_objective(basis, l2h.coef, z, w_heavy))
    if gap > 1e-6:
        problems.append(f"L1 objective gap ({gap})")

    ok = not problems
    _report(9, ok, "invariance suite (monotone reports, partition of unity "
                   f"1e-12, normal equations 1e-8, L1 gap 1e-6): "
                   f"{'all hold' if ok else problems}")


def test_criterion_10_independence_decay():
    means = {}
    for n in (100, 400):
        vals = []
        for r in range(100):
            rng = np.random.default_rng([123, r])
            y = rng.standard_normal(400)
            x = rng.standard_normal(400)
            vals.append(rc_utility(y[:n], x[:n]))
        means[n] = float(np.mean(vals))
    ok = means[400] < means[100]
    _report(10, ok, f"mean null utility over 100 paired reps: n=100 -> "
                    f"{means[100]:.5f}, n=400 -> {means[400]:.5f} "
                    f"(need strict decay)")
