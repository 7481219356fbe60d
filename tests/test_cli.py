import json

import numpy as np
import pytest

from rankscreen.cli import load_csv, main, save_csv
from rankscreen.dataset import Dataset
from rankscreen.errors import InvalidInput


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def small_csv(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["y,x1,x2,x3"]
    y = rng.standard_normal(40)
    x = rng.standard_normal((40, 2))
    for i in range(40):
        cells = [y[i], y[i], x[i, 0], x[i, 1]]
        lines.append(",".join(repr(float(c)) for c in cells))
    return _write(tmp_path / "data.csv", "\n".join(lines) + "\n")


@pytest.fixture
def exposure_csv(tmp_path):
    rng = np.random.default_rng(1)
    z = rng.random(50)
    shared = rng.standard_normal(50)
    y = np.exp(z) + shared
    x1 = z ** 2 + shared
    x2 = rng.standard_normal(50)
    lines = ["y,z,x1,x2"]
    for i in range(50):
        cells = [y[i], z[i], x1[i], x2[i]]
        lines.append(",".join(repr(float(c)) for c in cells))
    return _write(tmp_path / "exp.csv", "\n".join(lines) + "\n")


class TestLoadCsv:
    def test_three_column_file(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,x1,x2\n1,2,3\n4,5,6\n")
        ds = load_csv(path, "y")
        assert ds.p == 2
        assert ds.x_names == ["x1", "x2"]
        assert ds.y.tolist() == [1.0, 4.0]

    def test_nan_cell_names_location(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,x1\n1,2\n3,NaN\n")
        with pytest.raises(InvalidInput, match=r"row 3, column 'x1'"):
            load_csv(path, "y")

    def test_first_bad_cell_in_file_order_reported(self, tmp_path):
        # a non-finite cell before a non-numeric one is the one reported
        path = _write(tmp_path / "t.csv", "y,x1,x2\n1,2,inf\n3,x,5\n")
        with pytest.raises(InvalidInput,
                           match=r"row 2, column 'x2': non-finite value"):
            load_csv(path, "y")

    def test_text_cell_names_location(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,x1\n1,2\nx,4\n")
        with pytest.raises(InvalidInput, match=r"row 3, column 'y'"):
            load_csv(path, "y")

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,x1\n1,2\n3,4,5\n")
        with pytest.raises(InvalidInput, match="row 3"):
            load_csv(path, "y")

    def test_missing_response_column(self, tmp_path):
        path = _write(tmp_path / "t.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(InvalidInput, match="resp"):
            load_csv(path, "resp")

    def test_needs_two_data_rows(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,x1\n1,2\n")
        with pytest.raises(InvalidInput):
            load_csv(path, "y")

    def test_exposure_extracted(self, exposure_csv):
        ds = load_csv(exposure_csv, "y", "z")
        assert ds.p == 2
        assert ds.z is not None
        assert ds.x_names == ["x1", "x2"]

    def test_quoted_fields(self, tmp_path):
        path = _write(tmp_path / "t.csv", '"y","x1"\n"1","2"\n"3","4"\n')
        ds = load_csv(path, "y")
        assert ds.y.tolist() == [1.0, 3.0]

    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = Dataset(y=rng.standard_normal(30),
                     x=rng.standard_normal((30, 1000)),
                     z=rng.random(30), z_name="z")
        path = tmp_path / "wide.csv"
        save_csv(ds, str(path))
        back = load_csv(str(path), "y", "z")
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.z, ds.z)


class TestScreenCommand:
    def test_duplicate_covariate_listed_first(self, small_csv, tmp_path,
                                              capsys):
        out = tmp_path / "report.json"
        code = main(["screen", "--input", small_csv, "--response", "y",
                     "--method", "rc", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["selected"][0] == "x1"
        assert payload["ranking"][0] == "x1"
        assert capsys.readouterr().out.startswith("RC-SIS: top")

    def test_rpc_without_exposure_is_usage_error(self, small_csv, capsys):
        code = main(["screen", "--input", small_csv, "--response", "y",
                     "--method", "rpc-l1"])
        assert code == 2

    def test_same_input_gives_byte_identical_json(self, small_csv, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["screen", "--input", small_csv, "--response", "y",
                         "--seed", "5", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rpc_reports_written(self, exposure_csv, tmp_path):
        out = tmp_path / "rpc.json"
        code = main(["screen", "--input", exposure_csv, "--response", "y",
                     "--exposure", "z", "--method", "rpc-l2",
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "RPC-SIS(L2)"
        assert payload["ranking"][0] == "x1"  # shared residual signal

    def test_missing_file_is_runtime_error(self, capsys):
        code = main(["screen", "--input", "/nonexistent.csv",
                     "--response", "y"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_threshold_and_topd_conflict(self, small_csv):
        code = main(["screen", "--input", small_csv, "--response", "y",
                     "--top-d", "2", "--threshold", "0.5"])
        assert code == 2

    def test_csv_ranking_output(self, small_csv, tmp_path):
        out = tmp_path / "rank.csv"
        code = main(["screen", "--input", small_csv, "--response", "y",
                     "--csv-output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rank,column,utility,selected"
        assert lines[1].startswith("1,x1,")


class TestSimulateCommand:
    def test_small_scenario_prints_table(self, capsys, tmp_path):
        out = tmp_path / "sim.json"
        code = main(["simulate", "--scenario", "E1", "--n", "50", "--p", "40",
                     "--rho0", "0.8", "--method", "rc", "--reps", "3",
                     "--seed", "7", "--output", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "scenario E1" in text
        assert "MMS" in text
        payload = json.loads(out.read_text())
        assert payload["seed"] == 7
        assert payload["methods"][0]["method"] == "rc"

    def test_unknown_scenario_exits_2_and_lists_ids(self, capsys):
        code = main(["simulate", "--scenario", "E9", "--reps", "1"])
        assert code == 2
        assert "E5d2" in capsys.readouterr().err

    def test_single_rep_has_zero_rsd(self, capsys):
        code = main(["simulate", "--scenario", "E1", "--n", "50", "--p",
                     "40", "--method", "rc", "--reps", "1", "--seed", "3"])
        assert code == 0
        text = capsys.readouterr().out
        row = [ln for ln in text.splitlines() if "rc" in ln][0]
        assert "0.0" in row

    def test_scenario_file(self, tmp_path, capsys):
        cfg = _write(tmp_path / "sc.cfg",
                     "scenario = E1\nn = 40\np = 30\nrho0 = 0.5\n")
        code = main(["simulate", "--scenario-file", cfg, "--method",
                     "pearson", "--reps", "2", "--seed", "1"])
        assert code == 0

    def test_rpc_on_exposure_free_scenario_is_usage_error(self, capsys):
        code = main(["simulate", "--scenario", "E1", "--n", "40", "--p",
                     "30", "--method", "rpc-l2", "--reps", "1",
                     "--seed", "1"])
        assert code == 2

    def test_auto_seed_printed(self, capsys):
        code = main(["simulate", "--scenario", "E1", "--n", "50", "--p",
                     "30", "--method", "rc", "--reps", "1"])
        assert code == 0
        assert "seed =" in capsys.readouterr().out


class TestTestCommand:
    def test_duplicated_covariate_rejects_with_min_p(self, small_csv,
                                                     capsys, tmp_path):
        out = tmp_path / "test.json"
        code = main(["test", "--input", small_csv, "--response", "y",
                     "--covariate", "x1", "--n-boot", "200", "--seed", "11",
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        res = payload["results"][0]
        assert res["reject"] is True
        assert res["p_value"] == pytest.approx(1 / 201)

    def test_fixed_seed_reproduces_p_value(self, small_csv, capsys):
        outs = []
        for _ in range(2):
            main(["test", "--input", small_csv, "--response", "y",
                  "--covariate", "x2", "--n-boot", "100", "--seed", "9"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_all_columns(self, small_csv, capsys):
        code = main(["test", "--input", small_csv, "--response", "y",
                     "--all", "--n-boot", "100", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("->") == 3

    def test_requires_covariate_or_all(self, small_csv):
        code = main(["test", "--input", small_csv, "--response", "y"])
        assert code == 2

    def test_unknown_covariate(self, small_csv, capsys):
        code = main(["test", "--input", small_csv, "--response", "y",
                     "--covariate", "nope"])
        assert code == 1


class TestThreadsFlag:
    @pytest.mark.parametrize("argv", [
        ["screen", "--method", "rc"],
        ["test", "--all", "--n-boot", "20"],
        ["simulate", "--scenario", "E1", "--n", "30", "--p", "20",
         "--reps", "1"],
    ])
    def test_accepted_without_effect(self, argv, small_csv, capsys):
        if argv[0] != "simulate":
            argv = argv + ["--input", small_csv, "--response", "y"]
        code = main(argv + ["--threads", "2", "--seed", "1"])
        assert code == 0
