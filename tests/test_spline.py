import numpy as np
import pytest

from rankscreen import spline
from rankscreen.errors import InvalidInput, OutOfSupport, SingularDesign
from rankscreen.spline import (
    BasisConfig,
    SplineBasis,
    basis_build,
    basis_eval,
    design_matrix,
    fit_l1,
    fit_l2,
    l1_objective,
    predict,
    _exchange,
    _lad,
    _start_basis,
)
from rankscreen.simgen import make_scenario, simulate

from oracles import lad_linprog, lad_oracle, normal_equations_oracle


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

    @pytest.mark.parametrize("field, value", [
        ("n_basis", 6.5),
        ("n_basis", float("nan")),
        ("n_basis", True),
        ("degree", 2.5),
        ("degree", float("nan")),
        ("degree", True),
    ])
    def test_rejects_non_integer_sizes(self, field, value):
        kwargs = {"degree": 3, "n_basis": 6, field: value}
        with pytest.raises(InvalidInput, match=field):
            basis_build(np.linspace(0, 1, 30), **kwargs)
        with pytest.raises(InvalidInput, match=field):
            BasisConfig(**kwargs)  # checked when built, by the same rule

    def test_accepts_numpy_integers(self):
        basis = basis_build(np.linspace(0, 1, 30), degree=np.int64(2),
                            n_basis=np.int32(5))
        assert basis.n_basis == 5


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

    def test_fit_is_certified_with_its_pivots(self, uniform_basis):
        z, basis = uniform_basis
        rng = np.random.default_rng(10)
        w = np.tan(np.pi * (rng.random(z.size) - 0.5))
        fit = fit_l1(basis, z, w)
        coefs, pivots, ridged, _ = _lad(design_matrix(basis, z), w[None])
        assert fit.converged and not fit.ridged
        assert fit.iterations == pivots[0] <= 2 * z.size
        assert fit.coef.tobytes() == coefs[0].tobytes()


def _tiny_design(kind, seed):
    """A design small enough to enumerate: n = 14 rows."""
    rng = np.random.default_rng(seed)
    n = 14
    if kind == "discrete-exposure":
        # 11 distinct values, so three rows repeat another's design row
        z = np.r_[np.linspace(0.0, 1.0, 11), rng.integers(0, 11, 3) / 10]
    else:
        z = np.r_[0.0, 1.0, rng.random(n - 2)]
    b = design_matrix(basis_build(z, n_basis=6 if kind == "n-basis-6" else 4),
                      z)
    if kind == "near-collinear":
        b = np.column_stack([b, b[:, 1] + 1e-7 * rng.standard_normal(n)])
    return b, rng


def _tiny_targets(kind, rng, n, m=4):
    if kind == "normal":
        return rng.standard_normal((m, n))
    if kind == "cauchy":
        return rng.standard_cauchy((m, n))
    if kind == "012":
        return rng.integers(0, 3, (m, n)).astype(float)
    return (rng.random((m, n)) < 0.3).astype(float)  # Bernoulli


def _near_copy_design(m):
    """A cubic design with a near copy of its second column appended, whose
    gram fails its Cholesky check, and m standard normal targets."""
    rng = np.random.default_rng(16)
    z = rng.random(120)
    b = design_matrix(basis_build(z), z)
    b = np.column_stack([b, b[:, 1] + 1e-9 * rng.standard_normal(120)])
    return b, rng.standard_normal((m, 120))


class TestNormalEquations:
    @pytest.mark.parametrize("design", ["near-copy", "e4"])
    def test_one_solve_equals_per_target_reference_bitwise(self, design):
        if design == "near-copy":
            b, w = _near_copy_design(300)
        else:
            sim = simulate(make_scenario("E4", n=200, p=250, r2=0.3,
                                         error="cauchy3"), seed=1).dataset
            b = design_matrix(basis_build(sim.z), sim.z)
            w = np.column_stack([sim.y, sim.x]).T.copy()
        coefs, ridged = spline._fit_l2(b, w[..., None])
        expected, flags = normal_equations_oracle(b, w)
        assert coefs.tobytes() == expected.tobytes()
        assert ridged is (design == "near-copy")
        assert (flags == ridged).all()

    def test_design_fault_names_no_target(self):
        z = np.array([0.0] + [0.5] * 20 + [1.0])
        b = design_matrix(basis_build(z, degree=1, n_basis=5), z)
        w = np.random.default_rng(8).standard_normal((3, z.size))
        with pytest.raises(SingularDesign, match="no observations") as err:
            spline._fit_l2(b, w[..., None])
        assert err.value.target is None


class TestExactLad:
    """The absolute-loss fit is an exact, certified LAD vertex."""

    @pytest.mark.parametrize("targets", ["normal", "cauchy", "012",
                                         "bernoulli"])
    @pytest.mark.parametrize("design", ["continuous", "discrete-exposure",
                                        "n-basis-6", "near-collinear"])
    def test_objective_is_the_enumerated_optimum(self, design, targets):
        b, rng = _tiny_design(design, seed=len(design) + len(targets))
        w = _tiny_targets(targets, rng, b.shape[0])
        coefs, pivots, ridged, degenerate = _lad(b, w)
        assert (pivots <= 2 * b.shape[0]).all()
        for i in range(w.shape[0]):
            got = float(np.abs(w[i] - b @ coefs[i]).sum())
            assert got == pytest.approx(lad_oracle(b, w[i]), rel=1e-9,
                                        abs=1e-12)
            assert got == pytest.approx(lad_linprog(b, w[i]), rel=1e-6,
                                        abs=1e-9)

    @pytest.mark.parametrize("data", ["e4-cauchy", "tied-012"])
    def test_strict_fits_do_not_depend_on_the_start(self, data):
        if data == "e4-cauchy":
            sim = simulate(make_scenario("E4", n=200, p=60, r2=0.3,
                                         error="cauchy3"), seed=3).dataset
            z, w = sim.z, np.column_stack([sim.y, sim.x]).T
        else:
            rng = np.random.default_rng(12)
            z = np.round(rng.random(200), 1)
            w = rng.integers(0, 3, (40, 200)).astype(float)
        b = design_matrix(basis_build(z), z)
        w = np.ascontiguousarray(w)
        l2, _ = spline._fit_l2(b, w[..., None])
        from_l2 = _start_basis(b, w, l2)
        # rows in index order: every residual of a zero fit ties at 0
        by_index = _start_basis(b, np.zeros_like(w), np.zeros_like(l2))
        assert (from_l2 != by_index).any(axis=1).mean() > 0.9
        c1, h1, _, deg1 = _exchange(b, w, from_l2)
        c2, h2, _, deg2 = _exchange(b, w, by_index)
        strict = ~deg1 & ~deg2
        assert strict.mean() > 0.8
        assert np.array_equal(h1[strict], h2[strict])
        assert c1[strict].tobytes() == c2[strict].tobytes()

    @pytest.mark.parametrize("size, flagged", [(4, True), (5, False)])
    def test_degenerate_flags_non_unique_optima(self, size, flagged):
        # four distinct exposure values and a cubic basis: the fit is the
        # median of each group, an interval when the group size is even
        z = np.repeat([0.0, 1 / 3, 2 / 3, 1.0], size)
        rng = np.random.default_rng(13)
        w = rng.standard_normal((6, z.size))
        b = design_matrix(basis_build(z), z)
        coefs, _, _, degenerate = _lad(b, w)
        assert (degenerate == flagged).all()
        group_median = np.median(w.reshape(6, 4, size), axis=2)
        fitted = (coefs @ b.T).reshape(6, 4, size)[..., 0]
        objective = np.abs(w - coefs @ b.T).sum(axis=1)
        best = np.abs(w.reshape(6, 4, size)
                      - group_median[..., None]).sum(axis=(1, 2))
        assert np.allclose(objective, best, rtol=1e-12)
        if not flagged:
            assert np.allclose(fitted, group_median, rtol=0, atol=1e-12)

    def test_fit_past_the_pivot_bound_raises(self, monkeypatch,
                                             uniform_basis):
        # a certificate no vertex can pass: the fit pivots 2n times, then
        # raises instead of returning an uncertified fit
        z, basis = uniform_basis
        monkeypatch.setattr(spline, "_CERT_TOL", -1.0)
        with pytest.raises(SingularDesign, match=f"within {2 * z.size} "
                                                 "pivots"):
            fit_l1(basis, z, np.sin(z))

    def test_ridged_start_is_flagged(self):
        # a near copy of a basis column: the least-squares gram fails its
        # Cholesky check and takes the ridge; the exchange still ends at a
        # vertex no worse than the LP solver's
        b, w = _near_copy_design(3)
        coefs, _, ridged, _ = _lad(b, w)
        assert ridged is True
        for i in range(3):
            got = float(np.abs(w[i] - b @ coefs[i]).sum())
            assert got <= lad_linprog(b, w[i]) * (1 + 1e-9)

    def test_batch_on_ridged_design_equals_fits_on_their_own(self):
        b, w = _near_copy_design(3)
        coefs, pivots, ridged, degenerate = _lad(b, w)
        for i in range(3):
            alone = _lad(b, w[i:i + 1])
            assert alone[0].tobytes() == coefs[i:i + 1].tobytes()
            assert alone[1][0] == pivots[i]
            assert alone[2] is ridged is True
            assert alone[3][0] == degenerate[i]

    def test_singular_basis_raises_with_its_target(self):
        z = np.repeat(np.linspace(0.0, 1.0, 10), 2)  # rows 2i, 2i+1 repeat
        b = design_matrix(basis_build(z), z)
        w = np.random.default_rng(15).standard_normal((3, z.size))
        basis = np.array([[0, 2, 4, 6], [0, 1, 4, 6], [2, 4, 6, 8]])
        with pytest.raises(SingularDesign, match="singular") as err:
            _exchange(b, w, basis)
        assert err.value.target == 1

    def test_start_basis_nonsingular_on_tied_exposure(self):
        # z rounded to 0.1: 11 distinct values, so most rows repeat another
        # row of the design, and the k smallest residuals can be singular
        rng = np.random.default_rng(14)
        z = np.round(rng.random(200), 1)
        w = np.ascontiguousarray(rng.integers(0, 3, (50, 200)), dtype=float)
        b = design_matrix(basis_build(z, n_basis=6), z)
        start = _start_basis(b, w, spline._fit_l2(b, w[..., None])[0])
        assert all(np.linalg.matrix_rank(b[h]) == 6 for h in start)
        assert all(np.unique(z[h]).size == 6 for h in start)
        assert (np.diff(start, axis=1) > 0).all()

    def test_start_basis_rank_deficient_design_raises(self):
        z = np.linspace(0.0, 1.0, 30)
        b = design_matrix(basis_build(z), z)
        b = np.column_stack([b, b[:, :1]])  # a repeated column
        w = np.ones((2, 30))
        with pytest.raises(SingularDesign, match="rank deficient") as err:
            _start_basis(b, w, np.zeros((2, 5, 1)))
        assert err.value.target == 0


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
