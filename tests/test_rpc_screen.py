import tracemalloc

import numpy as np
import pytest

from rankscreen import empirical, spline
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
    predict,
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

    @pytest.mark.parametrize("loss", ["l2", "l1"])
    def test_exposure_equal_to_response_rejected(self, loss):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(60)
        ds = Dataset(y=y, x=rng.standard_normal((60, 3)), z=y.copy(),
                     z_name="dose")
        with pytest.raises(InvalidInput, match="exposure 'dose' is the "
                                               "response 'y'"):
            residualize(ds, loss=loss)
        with pytest.raises(InvalidInput):
            rpc_screen(ds)

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
        assert set(res.diagnostics) == {"iterations", "ridged", "degenerate"}
        assert res.diagnostics["ridged"] is False  # one flag for the design
        assert len(res.diagnostics["degenerate"]) == 4  # response + 3 columns
        assert all(isinstance(f, bool) for f in res.diagnostics["degenerate"])
        # every fit is certified within 2n pivots: an uncertified one raises
        assert len(res.diagnostics["iterations"]) == 4
        assert all(isinstance(i, int) and 0 <= i <= 2 * 60
                   for i in res.diagnostics["iterations"])


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
            assert res.diagnostics["ridged"] is fit.ridged

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_l2_batch_equals_per_column_fits_bitwise(self, order):
        sim = simulate(make_scenario("E4", n=203, p=60, r2=0.3,
                                     error="cauchy3"), seed=4).dataset
        ds = Dataset(y=sim.y, x=np.asarray(sim.x, order=order), z=sim.z)
        res = residualize(ds, loss="l2")
        basis = basis_build(ds.z)
        targets = np.column_stack([ds.y, ds.x])
        for j in range(targets.shape[1]):
            fit = fit_l2(basis, ds.z, targets[:, j])
            resid = res.eps_y if j == 0 else res.eps_x[:, j - 1]
            assert np.array_equal(resid,
                                  targets[:, j] - predict(fit, ds.z))

    @pytest.mark.parametrize("loss", ["l2", "l1"])
    def test_l2_singular_message_matches_fit_l2(self, loss):
        # a basis function with no support points is the design's fault,
        # under either loss: the message names no column
        z = np.array([0.0] + [0.5] * 20 + [1.0])
        rng = np.random.default_rng(8)
        ds = Dataset(y=rng.standard_normal(z.size),
                     x=rng.standard_normal((z.size, 2)), z=z)
        config = BasisConfig(degree=1, n_basis=5)
        basis = basis_build(z, degree=1, n_basis=5)
        with pytest.raises(SingularDesign) as from_fit:
            fit_l2(basis, z, ds.y)
        with pytest.raises(SingularDesign) as from_residualize:
            residualize(ds, basis_config=config, loss=loss)
        assert str(from_residualize.value) == str(from_fit.value)

    def test_l1_uncertified_fit_is_named(self, monkeypatch):
        # a certificate no vertex can pass: the response's own fit fails
        monkeypatch.setattr(spline, "_CERT_TOL", -1.0)
        rng = np.random.default_rng(8)
        z = rng.random(30)
        ds = Dataset(y=rng.standard_normal(30),
                     x=rng.standard_normal((30, 2)), z=z)
        with pytest.raises(SingularDesign,
                           match=r"^column 'y': LAD fit not certified"):
            residualize(ds, loss="l1")

    def test_l1_scaled_column_has_scaled_residuals(self):
        # LAD is scale-equivariant: a column times 1e200 takes the same
        # pivots, and its residuals are 1e200 times the column's
        rng = np.random.default_rng(9)
        z = rng.random(80)
        base = rng.standard_normal(80)
        ds = Dataset(y=rng.standard_normal(80),
                     x=np.column_stack([base, base * 1e200]), z=z)
        res = residualize(ds, loss="l1")
        assert res.diagnostics["iterations"][1] == \
            res.diagnostics["iterations"][2]
        scale = 1e200 * np.abs(base).max()
        assert np.abs(res.eps_x[:, 1]
                      - 1e200 * res.eps_x[:, 0]).max() <= 1e-14 * scale

    @pytest.mark.parametrize("position", [1, 100])
    def test_l1_overflowing_column_is_named(self, monkeypatch, position):
        # values near +-1.5e308: the residual arithmetic overflows; with
        # 64-target slices, position 100 fails in the second slice
        monkeypatch.setattr(empirical, "_CELLS", 1)
        rng = np.random.default_rng(4)
        z = rng.random(40)
        x = rng.standard_normal((40, 120))
        x[:, position] = 1.5e308 * np.sign(rng.standard_normal(40))
        names = [f"v{j}" for j in range(120)]
        ds = Dataset(y=1.0 + z, x=x, z=z, x_names=names)
        with pytest.raises(SingularDesign,
                           match=rf"column 'v{position}': .*not finite"):
            residualize(ds, loss="l1")

    @pytest.mark.parametrize("loss", ["l1", "l2"])
    def test_slices_are_byte_identical_to_one_batch(self, monkeypatch, loss):
        sim = simulate(make_scenario("E4", n=203, p=150, r2=0.3,
                                     error="cauchy3"), seed=5).dataset
        whole = residualize(sim, loss=loss)
        monkeypatch.setattr(empirical, "_CELLS", 1)  # 64-target slices
        assert empirical._chunk_width(sim.n) == 64
        sliced = residualize(sim, loss=loss)
        assert sliced.eps_y.tobytes() == whole.eps_y.tobytes()
        assert sliced.eps_x.tobytes() == whole.eps_x.tobytes()
        assert sliced.diagnostics == whole.diagnostics

    def test_l1_traced_peak_independent_of_p(self):
        # numpy reports its buffers to tracemalloc; the residuals aside,
        # the fits hold one slice's arrays, not arrays as large as x
        rng = np.random.default_rng(9)
        n = 300
        z = rng.random(n)
        extra = {}
        for p in (800, 3200):
            ds = Dataset(y=rng.standard_normal(n),
                         x=np.asfortranarray(rng.standard_normal((n, p))),
                         z=z)
            tracemalloc.start()
            try:
                residualize(ds, loss="l1")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra[p] = peak - 8 * n * (p + 1)
        assert extra[3200] < 1.1 * extra[800]


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

    def test_l1_screen_ranks_certified_residuals(self):
        sim = simulate(make_scenario("E4", n=120, p=20, r2=0.3,
                                     error="cauchy3"), seed=2).dataset
        res = residualize(sim, loss="l1")
        assert len(res.diagnostics["iterations"]) == sim.p + 1
        assert max(res.diagnostics["iterations"]) <= 2 * sim.n
        report = rpc_screen(sim, loss="l1")
        assert np.array_equal(report.utilities,
                              rc_utilities(res.eps_y, res.eps_x))

    def test_basis_config_is_honored(self):
        rng = np.random.default_rng(17)
        z = rng.random(100)
        ds = Dataset(y=np.sin(4 * z) + rng.standard_normal(100),
                     x=rng.standard_normal((100, 3)), z=z)
        res = residualize(ds, basis_config=BasisConfig(degree=2, n_basis=7))
        assert res.basis.degree == 2
        assert res.basis.n_basis == 7
