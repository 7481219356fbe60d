import numpy as np
import pytest

from rankscreen.errors import InvalidInput
from rankscreen.simgen import (
    Scenario,
    active_set,
    draw_error,
    gen_ar1_gaussian,
    gen_contaminated,
    gen_equicorrelated_uniform,
    gen_exposure_correlated,
    gen_response,
    list_scenario_ids,
    make_scenario,
    response_mean,
    scenario_from_config,
    simulate,
)
from rankscreen.simgen import (
    _calibrated_theta,
    _exposure_weights,
    _uniform_mix_weight,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestAr1Gaussian:
    def test_independent_case(self):
        x = gen_ar1_gaussian(10000, 8, 0.0, _rng(1))
        corr = np.corrcoef(x.T)
        assert np.abs(corr - np.eye(8)).max() <= 4 / np.sqrt(10000)

    def test_adjacent_correlation(self):
        x = gen_ar1_gaussian(10000, 8, 0.8, _rng(2))
        corr = np.corrcoef(x.T)
        assert corr[0, 1] == pytest.approx(0.8, abs=0.03)

    def test_lag_five_correlation(self):
        x = gen_ar1_gaussian(10000, 8, 0.8, _rng(2))
        corr = np.corrcoef(x.T)
        assert corr[0, 5] == pytest.approx(0.8 ** 5, abs=0.03)

    def test_invalid_parameter(self):
        with pytest.raises(InvalidInput):
            gen_ar1_gaussian(10, 3, 1.0, _rng(0))


class TestContaminated:
    def test_degenerate_weight_is_bit_identical(self):
        x0 = gen_ar1_gaussian(100, 4, 0.5, _rng(5))
        out = gen_contaminated(x0, 1.0, "cauchy", _rng(6))
        assert np.array_equal(out, x0)
        assert out is not x0

    def test_heavy_tails_present(self):
        from scipy import stats

        x0 = gen_ar1_gaussian(50000, 2, 0.5, _rng(5))
        col = gen_contaminated(x0, 0.8, "cauchy", _rng(6))[:, 0]
        assert stats.kurtosis(col) > 100.0

    def test_symmetric_noise_keeps_trimmed_mean_near_zero(self):
        from scipy import stats

        x0 = gen_ar1_gaussian(50000, 2, 0.5, _rng(5))
        col = gen_contaminated(x0, 0.8, "cauchy", _rng(6))[:, 0]
        assert abs(stats.trim_mean(col, 0.1)) <= 0.02

    def test_invalid_weight(self):
        x0 = np.zeros((5, 2))
        with pytest.raises(InvalidInput):
            gen_contaminated(x0, 0.0, "cauchy", _rng(0))


class TestEquicorrelatedUniform:
    def test_zero_correlation_weight(self):
        assert _uniform_mix_weight(0.0) == 0.0

    def test_weight_solves_analytic_equation(self):
        t = _uniform_mix_weight(0.4)
        assert t == pytest.approx(np.sqrt(2 / 3), abs=1e-10)

    def test_sample_correlation(self):
        x = gen_equicorrelated_uniform(10000, 5, 0.4, _rng(3))
        assert np.corrcoef(x.T)[0, 1] == pytest.approx(0.4, abs=0.03)

    def test_values_in_unit_interval(self):
        x = gen_equicorrelated_uniform(500, 5, 0.7, _rng(4))
        assert x.min() >= 0.0
        assert x.max() <= 1.0

    def test_invalid_rho(self):
        with pytest.raises(InvalidInput):
            gen_equicorrelated_uniform(10, 2, 1.0, _rng(0))

    @pytest.mark.parametrize("rho0", [0.0, 1e-12, 0.1, 0.4, 0.8, 0.999])
    def test_closed_form_weight_gives_rho0(self, rho0):
        t = _uniform_mix_weight(rho0)
        assert t * t / (1.0 + t * t) == pytest.approx(rho0, rel=1e-14)


class TestExposureCorrelated:
    def test_zero_rho_decouples(self):
        x0, z = gen_exposure_correlated(2000, 3, 0.0, 0.0, _rng(7))
        assert abs(np.corrcoef(x0[:, 0], z)[0, 1]) <= 0.1

    def test_zero_rho_with_nonzero_target_infeasible(self):
        with pytest.raises(InvalidInput):
            gen_exposure_correlated(10, 2, 0.0, 0.4, _rng(0))

    def test_covariate_correlation(self):
        x0, _ = gen_exposure_correlated(10000, 4, 0.4, 0.4, _rng(4))
        assert np.corrcoef(x0.T)[0, 1] == pytest.approx(0.4, abs=0.03)

    def test_exposure_correlation(self):
        x0, z = gen_exposure_correlated(10000, 4, 0.4, 0.4, _rng(4))
        assert np.corrcoef(x0[:, 0], z)[0, 1] == pytest.approx(0.4, abs=0.03)

    def test_infeasible_target(self):
        # supremum of corr(x, z) is sqrt(rho0)
        with pytest.raises(InvalidInput, match="rho0"):
            gen_exposure_correlated(10, 2, 0.09, 0.4, _rng(0))
        with pytest.raises(InvalidInput):
            gen_exposure_correlated(10, 2, 0.16, 0.4, _rng(0))

    @pytest.mark.parametrize("rho0, target", [
        (0.4, 0.4), (0.17, 0.4), (0.8, 0.1), (0.5, 0.0), (0.99, 0.9),
    ])
    def test_closed_form_weights_solve_both_correlations(self, rho0, target):
        # the population correlations of the docstring's construction
        t1, t2 = _exposure_weights(rho0, target)
        a = t1 * t1 / 12.0
        assert a / (1.0 + a) == pytest.approx(rho0, rel=1e-14)
        corr_xz = (t1 * t2 / 12.0) / np.sqrt(
            (1.0 + a) * (1.0 + t2 * t2) / 12.0)
        assert corr_xz == pytest.approx(target, rel=1e-14, abs=1e-300)


class TestResponseMean:
    def test_linear_model_basis_row(self):
        x0 = np.zeros((1, 10))
        x0[0, 0] = 1.0
        assert response_mean("E1", x0)[0] == 3.0

    def test_additive_g2_root(self):
        from rankscreen.simgen import _g2

        # second additive component vanishes at exactly one third
        assert _g2(1 / 3) == 0.0
        x0 = np.zeros((1, 4))
        x0[0, 1] = 1 / 3
        base = np.zeros((1, 4))
        offset = response_mean("E3", base)[0] - 6.0 * _g2(0.0)
        assert response_mean("E3", x0)[0] == pytest.approx(offset, abs=1e-12)

    def test_poisson_link_at_zero(self):
        sc = make_scenario("S3c1", n=20000, p=400)
        sim_rng = _rng(10)
        x0 = np.zeros((20000, 400))
        lam = np.exp(response_mean("S3", x0))
        y = sim_rng.poisson(lam).astype(float)
        assert y.mean() == pytest.approx(1.0, abs=0.03)

    def test_unknown_scenario(self):
        with pytest.raises(InvalidInput):
            response_mean("E9", np.zeros((1, 5)))


class TestGenResponse:
    def test_continuous_is_mean_plus_error(self):
        sc = make_scenario("E1", n=50, p=10)
        x0 = gen_ar1_gaussian(50, 10, sc.rho0, _rng(20))
        y = gen_response(sc, x0, None, _rng(21))
        eps = draw_error("cauchy", 50, _rng(21))
        assert np.array_equal(y, response_mean("E1", x0) + eps)

    def test_bernoulli_branch(self):
        sc = make_scenario("S1c1", n=50, p=400)
        x0 = gen_ar1_gaussian(50, 400, sc.rho0, _rng(22))
        y = gen_response(sc, x0, None, _rng(23))
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_e4_requires_r2(self):
        # checked when the scenario is built, before any draw
        with pytest.raises(InvalidInput, match="E4 needs 'r2'"):
            Scenario(id="E4", n=30, p=5, rho0=0.8, error="cauchy3")


class TestThetaCalibration:
    @pytest.mark.parametrize("rho0, theta", [
        (0.8, 0.13430975236255926), (0.0, 0.1519677538079858)])
    def test_theta_is_the_closed_form(self, rho0, theta):
        # sqrt(3 r2 / (1 - r2) / Var(mu0)) with Var(mu0) = 71.27 at
        # rho0 = 0.8 and 55.67 at rho0 = 0
        assert _calibrated_theta(0.3, rho0) == pytest.approx(theta, rel=1e-12)

    @pytest.mark.parametrize("rho0", [0.8, 0.5, 0.0])
    def test_theta_achieves_target_variance(self, rho0):
        theta = _calibrated_theta(0.3, rho0)
        x0 = gen_ar1_gaussian(200000, 3, rho0, _rng(10))
        z = _rng(11).random(200000)
        mu = response_mean("E4", x0, z, theta=theta)
        target = 0.3 / 0.7 * 3.0
        assert mu.var() == pytest.approx(target, rel=0.05)

    def test_theta_monotone_in_target(self):
        assert _calibrated_theta(0.05, 0.8) < _calibrated_theta(0.3, 0.8)

    @pytest.mark.parametrize("rho0", [0.0, 0.8])
    def test_response_scaled_at_scenario_rho0(self, rho0):
        sc = make_scenario("E4", n=40, p=5, rho0=rho0)
        x0 = gen_ar1_gaussian(40, 5, rho0, _rng(12))
        z = _rng(13).random(40)
        y = gen_response(sc, x0, z, _rng(14))
        mu = response_mean("E4", x0, z, theta=_calibrated_theta(0.3, rho0))
        eps = draw_error("cauchy3", 40, _rng(14))
        np.testing.assert_array_equal(y, mu + eps)


class TestErrorFamilies:
    def test_t3_variance(self):
        e = draw_error("t3", 200000, _rng(8))
        assert 2.4 <= e.var() <= 3.8

    def test_cauchy_untrimmed_vs_trimmed_mean_diverge(self):
        from scipy import stats

        e = draw_error("cauchy", 100000, _rng(12))
        assert abs(stats.trim_mean(e, 0.2)) < 0.05
        assert abs(e.mean()) > 10 * abs(stats.trim_mean(e, 0.2))

    def test_mixture_normal_is_bimodal(self):
        e = draw_error("mixnormal", 100000, _rng(9))
        hist, _ = np.histogram(e, bins=np.arange(-4, 4.5, 0.5))
        valley = hist[7] + hist[8]
        peak_lo = hist[3] + hist[4]
        peak_hi = hist[11] + hist[12]
        assert valley < 0.7 * peak_lo
        assert valley < 0.7 * peak_hi

    def test_scaled_cauchy(self):
        e1 = draw_error("cauchy", 50000, _rng(13))
        e3 = draw_error("cauchy3", 50000, _rng(13))
        assert np.array_equal(e3, e1 / 3.0)

    def test_unknown_family(self):
        with pytest.raises(InvalidInput):
            draw_error("levy", 10, _rng(0))


class TestScenarios:
    def test_active_sets_match_designs(self):
        expected = {
            "E1": [0, 1, 2, 3, 4],
            "E2b1": [0, 1, 9],
            "E2b2": [0, 1, 2, 3],
            "E2b3": [0, 1, 2, 3],
            "E2b4": [0, 1, 2, 3],
            "E3": [0, 1, 2, 3],
            "E4": [0, 1, 2],
            "E5d1": [0, 1, 2],
            "E5d2": [0, 1, 2],
            "E5d3": [1, 99, 399, 599],
            "E6": [0, 1, 2, 3],
            "S1": [0, 1, 99, 399],
            "S2": [0, 1, 99, 399],
            "S3": [0, 1, 99, 399],
            "S4": [0, 1, 99, 399],
        }
        for sid, active in expected.items():
            sc = make_scenario(sid if not sid.startswith("S") else sid + "c1")
            assert active_set(sc).tolist() == active

    def test_full_determinism(self):
        for sid in ("E1", "E3", "E4", "E5d3", "E6", "S1c3", "S3c1"):
            sc = make_scenario(sid, n=40, p=700)
            a = simulate(sc, 99)
            b = simulate(sc, 99)
            assert np.array_equal(a.dataset.y, b.dataset.y)
            assert np.array_equal(a.dataset.x, b.dataset.x)
            if a.dataset.z is not None:
                assert np.array_equal(a.dataset.z, b.dataset.z)

    def test_seed_changes_data(self):
        sc = make_scenario("E1", n=30, p=10)
        a = simulate(sc, 1)
        b = simulate(sc, 2)
        assert not np.array_equal(a.dataset.y, b.dataset.y)

    def test_case_parsing(self):
        sc = make_scenario("S2c3")
        assert sc.id == "S2"
        assert sc.case == 3
        # the suffix is the default case: None keeps it, a case overrides it
        assert make_scenario("S2c3", case=None).case == 3
        assert make_scenario("S2c3", case=1).case == 1

    def test_exposure_present_only_where_needed(self):
        assert simulate(make_scenario("E4", n=30, p=5), 0).dataset.z is not None
        assert simulate(make_scenario("E1", n=30, p=10), 0).dataset.z is None

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_is_an_integer_at_least_zero(self, seed):
        with pytest.raises(InvalidInput, match="seed must be an integer"):
            simulate(make_scenario("E1", n=30, p=10), seed)

    def test_unknown_id_lists_valid_ones(self):
        with pytest.raises(InvalidInput, match="E5d2"):
            make_scenario("E7")

    def test_p_too_small_for_active_set(self):
        with pytest.raises(InvalidInput):
            make_scenario("E5d3", n=50, p=100)

    def test_bernoulli_response_is_binary(self):
        sim = simulate(make_scenario("S1c2", n=50, p=400), 3)
        assert set(np.unique(sim.dataset.y)) <= {0.0, 1.0}

    def test_poisson_response_is_counts(self):
        sim = simulate(make_scenario("S4c1", n=50, p=400), 4)
        y = sim.dataset.y
        assert np.all(y >= 0)
        assert np.all(y == np.round(y))

    def test_transformed_response_model_is_finite(self):
        # heavy-tailed error inside an exponential inverse transform
        sim = simulate(make_scenario("E5d2", n=400, p=700), 5)
        assert np.all(np.isfinite(sim.dataset.y))

    def test_discrete_case_contamination(self):
        base = simulate(make_scenario("S1c1", n=40, p=400), 6)
        cont = simulate(make_scenario("S1c4", n=40, p=400), 6)
        # same latent stream, case 4 shifts columns by positive noise
        assert not np.array_equal(base.dataset.x, cont.dataset.x)

    @pytest.mark.parametrize("sid, case, w0", [
        ("S1c1", 1, 1.0), ("S2c2", 2, 0.95), ("S3c3", 3, 0.95),
        ("S4c4", 4, 0.95),
    ])
    def test_discrete_weight_echoes_the_one_used(self, sid, case, w0):
        sc = make_scenario(sid)
        assert (sc.case, sc.w0) == (case, w0)
        assert make_scenario(sid[:2], case=case).w0 == w0
        direct = Scenario(id=sid[:2], n=200, p=1000, rho0=0.4, case=case)
        assert direct == sc

    def test_case_one_is_uncontaminated(self):
        with pytest.raises(InvalidInput, match="case 1"):
            make_scenario("S1c1", w0=0.95)

    def test_case_only_for_discrete_designs(self):
        with pytest.raises(InvalidInput, match="E1 does not read 'case'"):
            make_scenario("E1", case=2)

    @pytest.mark.parametrize("sid, overrides, name", [
        ("E1", dict(w0=1.5), "w0"),
        ("S2c3", dict(w0=0.0), "w0"),
        ("E3", dict(rho0=1.2), "rho0"),
        ("S4c1", dict(rho0=-0.1), "rho0"),
        ("E1", dict(rho0=1.2), "rho0"),
        ("E6", dict(rho0=0.1), "rho0"),
        ("E6", dict(rho0=1.0), "rho0"),
        ("E4", dict(r2=1.5), "r2"),
        ("E4", dict(r2=0.0), "r2"),
        ("E1", dict(error="levy"), "error"),
        ("S2c1", dict(error="t3"), "'error'"),
        ("E1", dict(r2=0.3), "'r2'"),
        ("S1c1", dict(case=5), "case"),
        # each parameter of its type, not just comparable with its bounds
        ("E1", dict(n=100.5), "'n'"),
        ("E1", dict(p=True), "'p'"),
        ("S1c1", dict(case=2.0), "'case'"),
        ("E1", dict(rho0="0.5"), "'rho0'"),
        ("E3", dict(w0=True), "'w0'"),
        ("E4", dict(r2=[0.5]), "'r2'"),
        ("E1", dict(error=3), "'error'"),
    ])
    def test_every_parameter_checked_at_construction(self, sid, overrides,
                                                     name):
        with pytest.raises(InvalidInput, match=name):
            make_scenario(sid, **overrides)

    def test_unread_parameters_are_none(self):
        assert make_scenario("S2c1").error is None
        assert make_scenario("E1").r2 is None
        assert make_scenario("E1").case is None
        assert make_scenario("E4").r2 == 0.3
        with pytest.raises(InvalidInput, match="S2 does not read 'error'"):
            Scenario(id="S2", n=50, p=400, rho0=0.4, error="cauchy", case=1)
        with pytest.raises(InvalidInput, match="E1 needs 'error'"):
            Scenario(id="E1", n=50, p=40, rho0=0.4)

    @pytest.mark.parametrize("sid, w0, noise", [
        ("S1c2", 0.9, "t3"), ("S3c4", 0.5, "n51"), ("E1", 0.7, "cauchy"),
    ])
    def test_contamination_follows_w0(self, sid, w0, noise):
        sc = make_scenario(sid, n=30, p=400, w0=w0)
        rng = _rng(41)
        x0 = gen_ar1_gaussian(30, 400, sc.rho0, rng)
        expected = gen_contaminated(x0, w0, noise, rng)
        assert np.array_equal(simulate(sc, 41).dataset.x, expected)

    def test_scenario_ids_listed(self):
        ids = list_scenario_ids()
        assert "E1" in ids and "S3c1" in ids and "E5d2" in ids


class TestScenarioConfig:
    def test_round_trip(self):
        text = """
        # comment line
        scenario = E1
        n = 64  # a comment may end a line
        p = 32
        rho0 = 0.5
        w0 = 1.0
        """
        sc = scenario_from_config(text)
        assert sc == Scenario(id="E1", n=64, p=32, rho0=0.5, w0=1.0,
                              error="cauchy")

    def test_missing_scenario_key(self):
        with pytest.raises(InvalidInput):
            scenario_from_config("n = 10")

    def test_unknown_key(self):
        with pytest.raises(InvalidInput):
            scenario_from_config("scenario = E1\nbogus = 3")

    def test_discrete_case_sets_default_weight(self):
        sc = scenario_from_config("scenario = S2\ncase = 3\np = 400")
        assert (sc.id, sc.case, sc.w0) == ("S2", 3, 0.95)

    def test_unread_key_rejected(self):
        with pytest.raises(InvalidInput, match="does not read 'error'"):
            scenario_from_config("scenario = S2c1\nerror = t3")

    def test_bad_value_type(self):
        with pytest.raises(InvalidInput):
            scenario_from_config("scenario = E1\nn = many")
