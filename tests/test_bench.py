import numpy as np
import pytest

from rankscreen import bench
from rankscreen.bench import (
    METHOD_NAMES,
    METHODS,
    MetricsReport,
    get_method,
    mms,
    rsd,
    run_replications,
)
from rankscreen.dataset import Dataset
from rankscreen.errors import HarnessError, InvalidInput
from rankscreen.rc_screen import rc_screen
from rankscreen.report import SCHEMA_VERSION, TopD
from rankscreen.simgen import SimDataset, make_scenario, simulate

from oracles import mms_prefix_oracle


class TestMms:
    def test_single_active(self):
        assert mms([3, 1, 2], {1}) == 2

    def test_all_active(self):
        ranking = [4, 2, 0, 1, 3]
        assert mms(ranking, set(ranking)) == 5

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_prefix_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = 40
        ranking = rng.permutation(p)
        active = rng.choice(p, size=5, replace=False)
        assert mms(ranking, active) == mms_prefix_oracle(ranking, active)

    def test_out_of_range_active(self):
        with pytest.raises(InvalidInput):
            mms([0, 1, 2], {5})

    def test_empty_active(self):
        with pytest.raises(InvalidInput):
            mms([0, 1, 2], set())

    def test_lower_bound_is_active_size(self):
        rng = np.random.default_rng(5)
        ranking = rng.permutation(30)
        active = rng.choice(30, size=7, replace=False)
        assert mms(ranking, active) >= 7


class TestRsd:
    def test_constant_vector(self):
        assert rsd([4.2] * 10) == 0.0

    def test_single_observation_convention(self):
        assert rsd([3.0]) == 0.0

    def test_small_vector_hand_computed(self):
        # type-7 quartiles of 1..5 are 2 and 4
        assert rsd([1, 2, 3, 4, 5]) == pytest.approx(2 / 1.349, rel=1e-12)

    def test_normal_consistency(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(100000)
        assert rsd(vals) == pytest.approx(1.0, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            rsd([])


def _duplicate_generator(n=60, p=8):
    """Custom generator whose first covariate copies the response."""

    def make(seq):
        rng = np.random.Generator(np.random.Philox(seq))
        y = rng.standard_normal(n)
        x = rng.standard_normal((n, p))
        x[:, 0] = y
        return SimDataset(dataset=Dataset(y=y, x=x),
                          active=np.array([0]), scenario=None)

    return make


class TestRunReplications:
    def test_duplicate_covariate_gets_rank_one(self):
        report = run_replications(_duplicate_generator(), ["rc"], 5,
                                  base_seed=1)
        method = report.per_method[0]
        assert method.median_ranks == [1.0]
        assert method.median_mms == 1.0
        assert method.proportion == 1.0

    def test_single_replication_rsd_zero(self):
        report = run_replications(_duplicate_generator(), ["rc"], 1,
                                  base_seed=2)
        assert report.per_method[0].rsd_mms == 0.0

    def test_deterministic_given_seed(self):
        a = run_replications(_duplicate_generator(), ["rc", "pearson"], 4,
                             base_seed=3)
        b = run_replications(_duplicate_generator(), ["rc", "pearson"], 4,
                             base_seed=3)
        for ma, mb in zip(a.per_method, b.per_method):
            assert np.array_equal(ma.mms_values, mb.mms_values)

    def test_proportion_monotone_in_budget(self):
        sc = make_scenario("E1", n=50, p=60)
        loose = run_replications(sc, ["rc"], 8, base_seed=5, d_n=20)
        tight = run_replications(sc, ["rc"], 8, base_seed=5, d_n=5)
        assert tight.per_method[0].proportion <= loose.per_method[0].proportion

    def test_full_selection_implies_median_mms_within_budget(self):
        report = run_replications(_duplicate_generator(), ["rc"], 6,
                                  base_seed=12)
        method = report.per_method[0]
        assert method.proportion == 1.0
        assert method.median_mms <= report.d_n

    def test_medians_of_replicate_ranks(self):
        # an even replication count: a median is the mean of the two middle
        # values, per active covariate and for the MMS
        sc = make_scenario("E1", n=50, p=60)
        report = run_replications(sc, ["rc"], 4, base_seed=8)
        ranks = []
        for r in range(4):
            sim = simulate(sc, np.random.SeedSequence([8, r]))
            ranks.append(rc_screen(sim.dataset, TopD(5)).ranks()[sim.active])
        ranks = np.array(ranks, dtype=float)
        method = report.per_method[0]
        want = [float(np.mean(np.sort(col)[1:3])) for col in ranks.T]
        assert method.median_ranks == want
        mms_sorted = np.sort(ranks.max(axis=1))
        assert method.mms_values.tolist() == ranks.max(axis=1).tolist()
        assert method.median_mms == float(np.mean(mms_sorted[1:3]))

    def test_scenario_echo_and_json(self):
        sc = make_scenario("E1", n=50, p=60)
        report = run_replications(sc, ["rc"], 3, base_seed=6)
        payload = report.to_json_dict()
        assert payload["schema"] == SCHEMA_VERSION == 1
        assert payload["scenario"]["id"] == "E1"
        assert payload["methods"][0]["method"] == "rc"
        rows = report.to_csv_rows()
        assert rows[0][0] == "method"
        assert rows[0][-1] == "P"

    def test_failures_below_threshold_are_reported(self):
        base = _duplicate_generator()

        def flaky(seq):
            if seq.entropy[1] == 0:
                raise RuntimeError("boom")
            return base(seq)

        report = run_replications(flaky, ["rc"], 30, base_seed=7)
        assert report.n_failures == 1
        assert report.n_reps == 29

    def test_too_many_failures_raise(self):
        base = _duplicate_generator()

        def broken(seq):
            if seq.entropy[1] < 3:
                raise RuntimeError("boom")
            return base(seq)

        with pytest.raises(HarnessError):
            run_replications(broken, ["rc"], 10, base_seed=8)

    def test_each_screener_resolved_once(self, monkeypatch):
        calls = []

        def counting(name, basis_config):
            calls.append(name)
            return get_method(name, basis_config)

        monkeypatch.setattr(bench, "get_method", counting)
        run_replications(_duplicate_generator(), ["rc", "kendall"], 4,
                         base_seed=3)
        assert calls == ["rc", "kendall"]

    def test_repeated_method_reported_once(self):
        gen = _duplicate_generator()
        once = run_replications(gen, ["kendall", "rc"], 4, base_seed=5)
        again = run_replications(gen, ["kendall", "rc", "kendall", "rc"], 4,
                                 base_seed=5)
        assert [m.method for m in again.per_method] == ["kendall", "rc"]
        assert again.to_json_dict() == once.to_json_dict()
        assert again.to_csv_rows() == once.to_csv_rows()

    def test_unknown_method_rejected_up_front(self):
        with pytest.raises(InvalidInput):
            run_replications(_duplicate_generator(), ["mystery"], 2,
                             base_seed=9)

    def test_bad_budget_rejected_before_any_replication(self):
        calls = []
        make = _duplicate_generator()

        def counted(seq):
            calls.append(seq)
            return make(seq)

        with pytest.raises(InvalidInput, match="budget"):
            run_replications(counted, ["rc"], 3, base_seed=9, d_n=0)
        assert calls == []

    def test_negative_seed_rejected_before_any_replication(self):
        calls = []
        make = _duplicate_generator()

        def counted(seq):
            calls.append(seq)
            return make(seq)

        with pytest.raises(InvalidInput, match="seed must be an integer"):
            run_replications(counted, ["rc"], 2, base_seed=-1)
        assert calls == []

    @pytest.mark.parametrize("n_reps", [0, 2.5, True])
    def test_replication_count_is_an_integer_at_least_one(self, n_reps):
        calls = []
        make = _duplicate_generator()

        def counted(seq):
            calls.append(seq)
            return make(seq)

        with pytest.raises(InvalidInput, match="n_reps"):
            run_replications(counted, ["rc"], n_reps, base_seed=9)
        assert calls == []

    def test_aggregation_permutation_invariant(self):
        report = run_replications(_duplicate_generator(p=5), ["pearson"], 9,
                                  base_seed=10)
        values = report.per_method[0].mms_values
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(values)
        assert np.median(shuffled) == report.per_method[0].median_mms
        assert rsd(shuffled) == report.per_method[0].rsd_mms


class TestNoiseColumnInvariance:
    def test_extra_noise_never_improves_ranks_or_changes_utilities(self):
        rng = np.random.default_rng(11)
        n, p = 80, 6
        y = rng.standard_normal(n)
        x = rng.standard_normal((n, p))
        x[:, 0] = y + 0.3 * rng.standard_normal(n)
        base = rc_screen(Dataset(y=y, x=x))
        wide = rc_screen(Dataset(y=y, x=np.column_stack(
            [x, rng.standard_normal((n, 4))])))
        assert np.array_equal(wide.utilities[:p], base.utilities)
        assert np.all(wide.ranks()[:p] >= base.ranks())


class TestGetMethod:
    def test_all_names_resolve(self):
        for name in ("rc", "pearson", "kendall", "rpc-l2", "rpc-l1"):
            assert callable(get_method(name))

    def test_names_and_exposure_come_from_the_table(self):
        assert METHOD_NAMES == ("rc", "rpc-l2", "rpc-l1", "pearson",
                                "kendall")
        assert [m for m in METHOD_NAMES if METHODS[m].needs_exposure] == [
            "rpc-l2", "rpc-l1"]

    def test_unknown_name_message_lists_the_table(self):
        with pytest.raises(InvalidInput,
                           match="unknown method 'x'; valid: rc, rpc-l2"):
            get_method("x")

    @pytest.mark.parametrize("name", ["rc", "pearson", "kendall"])
    def test_default_selection_is_the_default_budget(self, name):
        ds = _duplicate_generator(n=60)(np.random.SeedSequence(1)).dataset
        report = get_method(name)(ds, None)
        assert report.selection == TopD(14)  # floor(60 / ln 60)
        assert report.selected.size == 8  # capped at p

    def test_rpc_method_runs_on_exposure_dataset(self):
        rng = np.random.default_rng(12)
        z = rng.random(50)
        ds = Dataset(y=np.exp(z) + rng.standard_normal(50),
                     x=rng.standard_normal((50, 4)), z=z)
        report = get_method("rpc-l1")(ds, TopD(2))
        assert report.method == "RPC-SIS(L1)"
