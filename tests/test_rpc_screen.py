import numpy as np
import pytest

from rankscreen.dataset import Dataset
from rankscreen.errors import InvalidInput, SingularDesign
from rankscreen.rc_screen import rc_screen, rc_utilities, robust_corr
from rankscreen.rpc_screen import (
    residualize,
    rpc_screen,
    rpc_utility,
)
from rankscreen.simgen import make_scenario, simulate
from rankscreen.spline import (
    BasisConfig,
    basis_build,
    design_matrix,
    fit_l1,
    fit_l2,
)

from oracles import rc_utility_oracle


def _spearman(a, b):
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    return np.corrcoef(ra, rb)[0, 1]


class TestResidualize:
    def test_in_space_target_leaves_no_residual(self):
        rng = np.random.default_rng(2)
        z = rng.random(150)
        x = np.column_stack([1.5 + 2.0 * z, rng.standard_normal(150)])
        ds = Dataset(y=rng.standard_normal(150), x=x, z=z)
        res = residualize(ds, loss="l2")
        assert np.abs(res.eps_x[:, 0]).max() <= 1e-6

    def test_l2_residuals_are_mean_zero(self):
        rng = np.random.default_rng(3)
        z = rng.random(120)
        ds = Dataset(y=np.exp(z) + rng.standard_normal(120),
                     x=rng.standard_normal((120, 4)), z=z)
        res = residualize(ds, loss="l2")
        scale = max(np.abs(ds.y).max(), 1.0)
        assert abs(res.eps_y.mean()) <= 1e-8 * scale
        assert np.abs(res.eps_x.mean(axis=0)).max() <= 1e-8

    def test_ranking_matches_rc_when_exposure_independent(self):
        rng = np.random.default_rng(0)
        n, p = 400, 25
        betas = np.linspace(0.2, 2.0, p)
        x = rng.standard_normal((n, p))
        y = x @ betas + rng.standard_normal(n)
        ds = Dataset(y=y, x=x, z=rng.random(n))
        r_rc = rc_screen(ds)
        r_rpc = rpc_screen(ds, loss="l2")
        assert _spearman(r_rc.utilities, r_rpc.utilities) >= 0.9

    def test_l1_centers_cauchy_residuals_at_median(self):
        rng = np.random.default_rng(1)
        n = 300
        z = rng.random(n)
        y = np.sin(2 * np.pi * z) + np.tan(np.pi * (rng.random(n) - 0.5)) / 3
        ds = Dataset(y=y, x=rng.standard_normal((n, 2)), z=z)
        res = residualize(ds, loss="l1")
        med = np.median(res.eps_y)
        mad = np.median(np.abs(res.eps_y - med)) * 1.4826
        assert abs(med) <= 3 * mad / np.sqrt(n)

    def test_missing_exposure(self):
        ds = Dataset(y=np.arange(10.0), x=np.ones((10, 2)))
        with pytest.raises(InvalidInput):
            residualize(ds)

    def test_unknown_loss(self):
        rng = np.random.default_rng(4)
        ds = Dataset(y=rng.standard_normal(30),
                     x=rng.standard_normal((30, 2)), z=rng.random(30))
        with pytest.raises(InvalidInput):
            residualize(ds, loss="huber")

    def test_constant_exposure_falls_back_to_centering(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(50)
        x = rng.standard_normal((50, 3))
        ds = Dataset(y=y, x=x, z=np.full(50, 2.0))
        with pytest.warns(UserWarning, match="constant"):
            res = residualize(ds, loss="l2")
        assert res.basis is None
        assert np.allclose(res.eps_y, y - y.mean())

    def test_l1_diagnostics_recorded(self):
        rng = np.random.default_rng(6)
        z = rng.random(60)
        ds = Dataset(y=z + rng.standard_normal(60),
                     x=rng.standard_normal((60, 3)), z=z)
        res = residualize(ds, loss="l1")
        assert len(res.diagnostics["iterations"]) == 4  # response + 3 columns
        assert all(isinstance(c, bool) for c in res.diagnostics["converged"])
        assert all(isinstance(r, bool) for r in res.diagnostics["ridged"])
        assert len(res.diagnostics["ridged"]) == 4
        # stalling short of the coefficient tolerance is reported, not raised
        assert all(i >= 1 for i in res.diagnostics["iterations"])


class TestBatchedSolver:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_l1_batch_equals_per_column_fits_bitwise(self, order):
        # n = 203: a strided row would change the last bits at this size
        sim = simulate(make_scenario("E4", n=203, p=60, r2=0.3,
                                     error="cauchy3"), seed=4).dataset
        ds = Dataset(y=sim.y, x=np.asarray(sim.x, order=order), z=sim.z)
        res = residualize(ds, loss="l1")
        basis = basis_build(ds.z)
        targets = np.column_stack([ds.y, ds.x])
        for j in range(targets.shape[1]):
            fit = fit_l1(basis, ds.z, targets[:, j])
            resid = res.eps_y if j == 0 else res.eps_x[:, j - 1]
            assert np.array_equal(resid, targets[:, j]
                                  - design_matrix(basis, ds.z) @ fit.coef)
            assert res.diagnostics["iterations"][j] == fit.iterations
            assert res.diagnostics["converged"][j] is fit.converged
            assert res.diagnostics["ridged"][j] is fit.ridged

    def test_l2_singular_message_matches_fit_l2(self):
        z = np.array([0.0] + [0.5] * 20 + [1.0])
        rng = np.random.default_rng(8)
        ds = Dataset(y=rng.standard_normal(z.size),
                     x=rng.standard_normal((z.size, 2)), z=z)
        config = BasisConfig(degree=1, n_basis=5)
        basis = basis_build(z, degree=1, n_basis=5)
        with pytest.raises(SingularDesign) as from_fit:
            fit_l2(basis, z, ds.y)
        with pytest.raises(SingularDesign) as from_residualize:
            residualize(ds, basis_config=config, loss="l2")
        assert str(from_residualize.value) == str(from_fit.value)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_l1_singular_names_the_column(self):
        rng = np.random.default_rng(9)
        z = rng.random(80)
        x = rng.standard_normal((80, 3))
        x[:, 1] *= 1e200
        ds = Dataset(y=rng.standard_normal(80), x=x, z=z,
                     x_names=["a", "b", "c"])
        with pytest.raises(SingularDesign, match=r"column 'b'"):
            residualize(ds, loss="l1")

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_l1_singular_named_after_other_fits_converge(self):
        # the response is in the spline space and converges at once; the
        # scaled Cauchy column passes its first IRLS step and fails later
        rng = np.random.default_rng(4)
        z = rng.random(40)
        bad = rng.standard_cauchy(40) * 1e150
        x = np.column_stack([rng.standard_normal(40), bad])
        ds = Dataset(y=1.0 + z, x=x, z=z, x_names=["a", "b"])
        with pytest.raises(SingularDesign, match=r"column 'b'"):
            residualize(ds, loss="l1")


class TestRobustPartialCorr:
    def test_comonotone_residuals_at_median(self):
        rng = np.random.default_rng(7)
        eps = rng.standard_normal(41)
        med = np.median(eps)
        assert robust_corr(med, med, eps, eps) == 1.0

    def test_hand_residual_pairs(self):
        # same arithmetic as the raw-data estimator applied to residuals
        eps_y = [1, 2, 3, 4]
        eps_x = [4, 3, 2, 1]
        assert robust_corr(2, 2, eps_y, eps_x) == pytest.approx(
            -2 / 3, abs=1e-15)

    def test_independent_residuals_average_small(self):
        rng = np.random.default_rng(8)
        e1 = rng.standard_normal(200)
        e2 = rng.standard_normal(200)
        vals = [abs(robust_corr(a, b, e1, e2))
                for a, b in zip(e1, e2)]
        assert np.mean(vals) < 0.15


class TestRpcUtility:
    def test_identical_residuals(self):
        rng = np.random.default_rng(9)
        eps = rng.standard_normal(60)
        assert rpc_utility(eps, eps) == 1.0

    def test_sign_flip_invariance_is_exact_for_decreasing_maps(self):
        rng = np.random.default_rng(10)
        eps = rng.standard_normal(250)
        u_neg = rpc_utility(eps, -eps)
        assert rpc_utility(eps, np.exp(-eps)) == u_neg
        assert u_neg > 0.85

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_exactly(self, seed):
        rng = np.random.default_rng(seed)
        e1 = rng.standard_normal(20)
        e2 = rng.standard_normal(20)
        assert rpc_utility(e1, e2) == rc_utility_oracle(e1, e2)


class TestRpcScreen:
    def test_residual_level_duplicate_ranked_first(self):
        rng = np.random.default_rng(11)
        n = 150
        z = rng.random(n)
        shared = rng.standard_normal(n)
        y = np.sin(2 * np.pi * z) + shared
        x = rng.standard_normal((n, 6))
        x[:, 0] = np.exp(z) + shared
        ds = Dataset(y=y, x=x, z=z)
        for loss in ("l2", "l1"):
            report = rpc_screen(ds, loss=loss)
            assert report.ranking[0] == 0

    def test_method_tags(self):
        rng = np.random.default_rng(12)
        ds = Dataset(y=rng.standard_normal(60),
                     x=rng.standard_normal((60, 3)), z=rng.random(60))
        assert rpc_screen(ds, loss="l2").method == "RPC-SIS(L2)"
        assert rpc_screen(ds, loss="l1").method == "RPC-SIS(L1)"

    def test_constant_exposure_equals_rc_on_centered_data(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal(80)
        x = rng.standard_normal((80, 5))
        ds = Dataset(y=y, x=x, z=np.zeros(80))
        with pytest.warns(UserWarning):
            report = rpc_screen(ds, loss="l2")
        centered = rc_utilities(y - y.mean(), x - x.mean(axis=0))
        assert np.array_equal(report.utilities, centered)
        # ranks ignore translation, so this also matches RC on the raw data
        assert np.array_equal(report.utilities, rc_utilities(y, x))

    def test_deterministic_report(self):
        rng = np.random.default_rng(14)
        ds = Dataset(y=rng.standard_normal(70),
                     x=rng.standard_normal((70, 4)), z=rng.random(70))
        a = rpc_screen(ds, loss="l1")
        b = rpc_screen(ds, loss="l1")
        assert np.array_equal(a.utilities, b.utilities)
        assert np.array_equal(a.ranking, b.ranking)

    def test_utilities_in_unit_interval(self):
        rng = np.random.default_rng(15)
        z = rng.random(90)
        y = np.exp(z) + np.tan(np.pi * (rng.random(90) - 0.5))
        x = rng.standard_normal((90, 8))
        ds = Dataset(y=y, x=x, z=z)
        for loss in ("l2", "l1"):
            report = rpc_screen(ds, loss=loss)
            assert np.all(report.utilities >= 0.0)
            assert np.all(report.utilities <= 1.0)

    def test_monotone_transform_of_residual_pairs_invariant(self):
        rng = np.random.default_rng(16)
        e_y = rng.standard_normal(100)
        e_x = rng.standard_normal(100)
        base = rpc_utility(e_y, e_x)
        assert rpc_utility(np.exp(e_y), e_x ** 3) == base

    def test_basis_config_is_honored(self):
        rng = np.random.default_rng(17)
        z = rng.random(100)
        ds = Dataset(y=np.sin(4 * z) + rng.standard_normal(100),
                     x=rng.standard_normal((100, 3)), z=z)
        res = residualize(ds, basis_config=BasisConfig(degree=2, n_basis=7))
        assert res.basis.degree == 2
        assert res.basis.n_basis == 7
