import dataclasses

import numpy as np
import pytest

from rankscreen.errors import InvalidInput, OutOfSupport, SingularDesign
from rankscreen.spline import (
    LadConfig,
    SplineBasis,
    basis_build,
    basis_eval,
    design_matrix,
    fit_l1,
    fit_l2,
    l1_objective,
    _irls,
    predict,
)
from rankscreen.simgen import make_scenario, simulate

from oracles import irls_oracle


@pytest.fixture
def uniform_basis():
    rng = np.random.default_rng(0)
    z = rng.random(200)
    return z, basis_build(z, degree=3, n_basis=6)


class TestBasisBuild:
    def test_dimension_arithmetic_no_interior_knots(self):
        z = np.linspace(0, 1, 50)
        basis = basis_build(z, degree=3, n_basis=4)
        assert basis.interior_knots.size == 0
        assert basis.n_basis == 4
        assert len(basis.knots) == 8

    def test_partition_of_unity(self, uniform_basis):
        z, basis = uniform_basis
        rng = np.random.default_rng(1)
        pts = basis.lo + (basis.hi - basis.lo) * rng.random(100)
        b = design_matrix(basis, pts)
        assert np.abs(b.sum(axis=1) - 1.0).max() <= 1e-12

    def test_normalization_on_dense_grid(self, uniform_basis):
        _, basis = uniform_basis
        grid = np.linspace(basis.lo, basis.hi, 2000)
        b = design_matrix(basis, grid)
        assert b.min() >= 0.0
        assert b.max() <= 1.0

    def test_boundary_from_sample(self):
        z = np.array([0.3, 0.9, 0.1, 0.5])
        basis = basis_build(z, degree=1, n_basis=2)
        assert basis.lo == 0.1
        assert basis.hi == 0.9

    def test_quantile_knot_placement(self):
        z = np.linspace(0, 1, 101)
        basis = basis_build(z, degree=3, n_basis=6)
        assert basis.interior_knots == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(InvalidInput):
            basis_build([0.0, 1.0], degree=3, n_basis=4)

    def test_too_few_distinct_values(self):
        with pytest.raises(InvalidInput):
            basis_build([0.0] * 10 + [1.0] * 10, degree=3, n_basis=6)

    def test_degenerate_dimension(self):
        with pytest.raises(InvalidInput):
            basis_build(np.linspace(0, 1, 30), degree=3, n_basis=3)


class TestBasisEval:
    def test_left_endpoint(self, uniform_basis):
        _, basis = uniform_basis
        vals = basis_eval(basis, basis.lo)
        assert vals[0] == 1.0
        assert np.all(vals[1:] == 0.0)

    def test_right_endpoint(self, uniform_basis):
        _, basis = uniform_basis
        vals = basis_eval(basis, basis.hi)
        assert vals[-1] == 1.0
        assert np.all(vals[:-1] == 0.0)

    def test_linear_hats_at_midpoint(self):
        basis = basis_build(np.linspace(0, 1, 10), degree=1, n_basis=2)
        assert basis_eval(basis, 0.5) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_clamps_within_tolerance(self, uniform_basis):
        _, basis = uniform_basis
        inside = basis_eval(basis, basis.hi)
        nudged = basis_eval(basis, basis.hi + 1e-12)
        assert np.array_equal(inside, nudged)

    def test_out_of_support_raises(self, uniform_basis):
        _, basis = uniform_basis
        with pytest.raises(OutOfSupport):
            basis_eval(basis, basis.hi + 0.5)


class TestFitL2:
    def test_constant_reproduced(self, uniform_basis):
        z, basis = uniform_basis
        fit = fit_l2(basis, z, np.full(z.size, 3.25))
        assert np.abs(predict(fit, z) - 3.25).max() <= 1e-8

    def test_in_space_recovery(self, uniform_basis):
        z, basis = uniform_basis
        rng = np.random.default_rng(2)
        coef = rng.standard_normal(basis.n_basis)
        w = design_matrix(basis, z) @ coef
        fit = fit_l2(basis, z, w)
        assert np.abs(fit.coef - coef).max() <= 1e-8

    def test_normal_equation_orthogonality(self, uniform_basis):
        z, basis = uniform_basis
        rng = np.random.default_rng(3)
        w = np.sin(2 * np.pi * z) + rng.standard_normal(z.size)
        fit = fit_l2(basis, z, w)
        b = design_matrix(basis, z)
        resid = w - b @ fit.coef
        assert np.abs(b.T @ resid).max() <= 1e-8 * np.linalg.norm(w)

    def test_supnorm_error_within_projection_bound(self):
        # Monte-Carlo check against a dense-grid projection oracle: the
        # noisy fit's sup-norm error stays below the noiseless projection
        # error plus three standard errors of the fitted curve.
        rng = np.random.default_rng(42)
        n = 500
        z = rng.random(n)
        sigma = 0.1

        def m(u):
            return np.sin(2 * np.pi * u)

        w = m(z) + sigma * rng.standard_normal(n)
        basis = basis_build(z, degree=3, n_basis=8)
        grid = np.linspace(basis.lo, basis.hi, 4000)
        bg = design_matrix(basis, grid)
        coef_proj, *_ = np.linalg.lstsq(bg, m(grid), rcond=None)
        proj_err = np.abs(bg @ coef_proj - m(grid)).max()
        fit = fit_l2(basis, z, w)
        fit_err = np.abs(bg @ fit.coef - m(grid)).max()
        b = design_matrix(basis, z)
        g_inv = np.linalg.inv(b.T @ b)
        se_sup = sigma * np.sqrt(
            np.einsum("ij,jk,ik->i", bg, g_inv, bg).max())
        assert fit_err <= proj_err + 3 * se_sup

    def test_affine_equivariance(self, uniform_basis):
        z, basis = uniform_basis
        rng = np.random.default_rng(4)
        w = rng.standard_normal(z.size)
        base = fit_l2(basis, z, w)
        shifted = fit_l2(basis, z, 3.0 * w + 2.0)
        assert np.abs(predict(shifted, z)
                      - (3.0 * predict(base, z) + 2.0)).max() <= 1e-8

    def test_structurally_unsupported_basis_function(self):
        # handcrafted knot vector with a hat supported only on (0.41, 0.59),
        # where the sample has no observations
        knots = np.array([0.0, 0.0, 0.4, 0.41, 0.59, 0.6, 1.0, 1.0])
        basis = SplineBasis(degree=1, knots=knots,
                            interior_knots=knots[2:6], lo=0.0, hi=1.0,
                            n_basis=6)
        z = np.concatenate([np.linspace(0, 0.4, 15),
                            np.linspace(0.6, 1.0, 15)])
        with pytest.raises(SingularDesign):
            fit_l2(basis, z, np.sin(z))


class TestFitL1:
    def test_noiseless_recovery_matches_l2(self, uniform_basis):
        z, basis = uniform_basis
        rng = np.random.default_rng(5)
        coef = rng.standard_normal(basis.n_basis)
        w = design_matrix(basis, z) @ coef
        fit = fit_l1(basis, z, w)
        assert fit.converged
        assert np.abs(fit.coef - coef).max() <= 1e-6

    def test_robust_to_gross_outliers(self):
        rng = np.random.default_rng(6)
        n = 120
        z = rng.random(n)
        w = 2.0 * z + 1.0 + 0.05 * rng.standard_normal(n)
        w[rng.choice(n, size=n // 10, replace=False)] += 100.0
        basis = basis_build(z, degree=3, n_basis=4)
        f1 = fit_l1(basis, z, w)
        f2 = fit_l2(basis, z, w)
        med1 = np.median(np.abs(w - predict(f1, z)))
        med2 = np.median(np.abs(w - predict(f2, z)))
        assert med1 <= med2

    def test_objective_monotone_under_smoothing(self, uniform_basis):
        # the smoothed objective never increases from the L2 start through
        # the iterates, read off as the fits capped at 1, 2, ... iterations
        z, basis = uniform_basis
        rng = np.random.default_rng(7)
        w = np.cos(4 * z) + rng.standard_normal(z.size)
        b = design_matrix(basis, z)
        eps_sq = LadConfig().epsilon ** 2

        def smoothed(coef):
            r = w - b @ coef
            return float(np.mean(np.sqrt(r * r + eps_sq)))

        steps = fit_l1(basis, z, w).iterations
        hist = [smoothed(fit_l2(basis, z, w).coef)]
        hist += [smoothed(fit_l1(basis, z, w, LadConfig(max_iter=t)).coef)
                 for t in range(1, steps + 1)]
        assert len(hist) >= 2
        assert all(hist[i + 1] <= hist[i] + 1e-10 for i in range(len(hist) - 1))

    def test_l1_objective_no_worse_than_l2_solution(self, uniform_basis):
        z, basis = uniform_basis
        rng = np.random.default_rng(8)
        w = np.sin(5 * z) + np.tan(np.pi * (rng.random(z.size) - 0.5))
        l2 = fit_l2(basis, z, w)
        l1 = fit_l1(basis, z, w)
        assert (l1_objective(basis, l1.coef, z, w)
                <= l1_objective(basis, l2.coef, z, w) + 1e-6)

    def test_affine_equivariance_up_to_tolerance(self, uniform_basis):
        z, basis = uniform_basis
        rng = np.random.default_rng(9)
        w = rng.standard_normal(z.size)
        base = fit_l1(basis, z, w)
        scaled = fit_l1(basis, z, -2.0 * w + 5.0)
        assert np.abs(predict(scaled, z)
                      - (-2.0 * predict(base, z) + 5.0)).max() <= 1e-4

    def test_lad_config_fields(self):
        assert [f.name for f in dataclasses.fields(LadConfig)] == [
            "epsilon", "tol", "max_iter"]

    @pytest.mark.parametrize("field, value", [
        ("epsilon", float("nan")),
        ("epsilon", float("inf")),
        ("epsilon", 0.0),
        ("epsilon", 1e-200),  # its square underflows to 0
        ("tol", float("nan")),
        ("tol", float("inf")),
        ("tol", -1.0),
        ("max_iter", 2.5),
        ("max_iter", 0),
        ("max_iter", True),
    ])
    def test_lad_config_rejects_invalid_settings(self, field, value):
        with pytest.raises(InvalidInput, match=field):
            LadConfig(**{field: value})

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"max_iter": np.int64(5)}, {"epsilon": 1e-150}])
    def test_lad_config_accepts_edge_settings(self, kwargs):
        LadConfig(**kwargs)

    def test_nonconvergence_flag_not_error(self, uniform_basis):
        z, basis = uniform_basis
        rng = np.random.default_rng(10)
        w = np.tan(np.pi * (rng.random(z.size) - 0.5))
        fit = fit_l1(basis, z, w, LadConfig(max_iter=1))
        assert not fit.converged
        assert fit.iterations == 1


class TestIrlsStep:
    """The batched IRLS forms its weighted design in place; every output
    must equal the textbook step run one target at a time, bit for bit."""

    @staticmethod
    def _design(n, seed, ridge):
        sim = simulate(make_scenario("E4", n=n, p=30, r2=0.3,
                                     error="cauchy3"), seed=seed).dataset
        b = design_matrix(basis_build(sim.z), sim.z)
        if ridge:
            # a near copy of a basis column: most weighted grams then fail
            # the Cholesky check and take the ridge
            rng = np.random.default_rng(seed)
            b = np.column_stack([b, b[:, 1] + 1e-7 * rng.standard_normal(n)])
        return b, np.column_stack([sim.y, sim.x]).T

    @pytest.mark.parametrize("n", [200, 203])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference_loop_bitwise(self, n, seed):
        b, targets = self._design(n, seed, ridge=False)
        got = _irls(b, targets, LadConfig())
        want = irls_oracle(b, targets, LadConfig())
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()

    def test_ridged_case_matches_reference_loop_bitwise(self):
        b, targets = self._design(200, 1, ridge=True)
        got = _irls(b, targets, LadConfig())
        want = irls_oracle(b, targets, LadConfig())
        assert 0 < got[3].sum() < got[3].size
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


class TestPredict:
    def test_matches_per_point_basis_eval(self, uniform_basis):
        z, basis = uniform_basis
        rng = np.random.default_rng(11)
        coef = rng.standard_normal(basis.n_basis)
        w = design_matrix(basis, z) @ coef
        fit = fit_l2(basis, z, w)
        pts = z[:20]
        expected = [float(basis_eval(basis, p) @ fit.coef) for p in pts]
        assert predict(fit, pts) == pytest.approx(expected, abs=1e-12)

    def test_training_points_reproduced_after_exact_fit(self, uniform_basis):
        z, basis = uniform_basis
        rng = np.random.default_rng(12)
        w = design_matrix(basis, z) @ rng.standard_normal(basis.n_basis)
        fit = fit_l2(basis, z, w)
        assert np.abs(predict(fit, z) - w).max() <= 1e-8

    def test_out_of_support_propagates(self, uniform_basis):
        z, basis = uniform_basis
        fit = fit_l2(basis, z, np.ones_like(z))
        with pytest.raises(OutOfSupport):
            predict(fit, np.array([basis.hi + 1.0]))
