import csv
import json
import tracemalloc

import numpy as np
import pytest

from rankscreen import cli
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

    def test_bad_cell_message_starts_with_path(self, tmp_path):
        path = _write(tmp_path / "t.csv", "y,x1\n1,2\n3,abc\n")
        with pytest.raises(InvalidInput) as info:
            load_csv(path, "y")
        assert str(info.value) == (
            f"{path}: row 3, column 'x1': non-numeric value 'abc'")

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

    @pytest.mark.parametrize("z_name", ["dose, mg", None])
    def test_bytes_equal_per_cell_writer(self, tmp_path, z_name):
        # reference: one csv.writer row of repr strings per observation
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 3))
        x[0, 0] = -0.0
        x[1, 1] = 5e-324
        x[2, 2] = 1e16
        x[3, 0] = 2.2250738585072014e-308
        z = rng.random(6) if z_name else None
        ds = Dataset(y=rng.standard_normal(6), x=x, z=z, z_name=z_name,
                     x_names=["a", 'say "hi"', "c"])
        lead = [ds.y_name] + ([z_name] if z_name else [])
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(lead + ds.x_names)
            for i in range(ds.n):
                cells = [ds.y[i]] + ([z[i]] if z_name else []) + list(x[i])
                writer.writerow([repr(float(v)) for v in cells])
        path = tmp_path / "out.csv"
        save_csv(ds, str(path))
        assert path.read_bytes() == ref.read_bytes()
        back = load_csv(str(path), "y", z_name)
        assert back.x_names == ds.x_names
        assert np.array_equal(back.x, x)
        assert str(back.x[0, 0]) == "-0.0"

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

    def test_utf8_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,x1\r\n1,2\r\n3,4\r\n")
        ds = load_csv(str(path), "y")
        assert ds.x_names == ["x1"]
        assert ds.y.tolist() == [1.0, 3.0]
        assert ds.x[:, 0].tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("header, message", [
        ("y,x1,x1", "columns 2 and 3 are both named 'x1'"),
        ("y,x1,y", "columns 1 and 3 are both named 'y'"),
        ("a,y,b,a,b", "columns 1 and 4 are both named 'a'"),
    ])
    def test_duplicate_column_names_rejected(self, tmp_path, header,
                                             message):
        width = header.count(",") + 1
        row = ",".join(["1"] * width)
        path = _write(tmp_path / "t.csv", f"{header}\n{row}\n{row}\n")
        with pytest.raises(InvalidInput, match=message):
            load_csv(path, "y")


def _grid(n, width):
    """Cell strings of an n-row table whose cell (i, j) is i * width + j."""
    return [[str(i * width + j) for j in range(width)] for i in range(n)]


def _write_grid(tmp_path, rows, width):
    header = ",".join(["y"] + [f"x{j}" for j in range(1, width)])
    text = "\n".join([header] + [",".join(r) for r in rows]) + "\n"
    return _write(tmp_path / "grid.csv", text)


def _set_block_cells(monkeypatch, cells):
    """Shrink the parse block to ``cells`` cells; None keeps the default."""
    if cells is not None:
        monkeypatch.setattr(cli, "_CELLS", cells)


class TestBlockParse:
    """Files spanning several parse blocks (``cli._CELLS`` shrunk so that
    small files do) report the same errors and values as one block."""

    # 4 columns and 12 cells per block: file rows 2-4, 5-7, 8-10, 11-13, ...
    @pytest.mark.parametrize("cells", [12, None])
    @pytest.mark.parametrize("file_row", [5, 10, 12])
    @pytest.mark.parametrize("cell, message", [
        ("abc", "{path}: row {r}, column 'x2': non-numeric value 'abc'"),
        ("-inf", "{path}: row {r}, column 'x2': non-finite value '-inf'"),
        (None, "{path}: row {r} has 5 cells, expected 4"),
    ])
    def test_bad_row_in_later_block_named_as_in_one_block(
            self, tmp_path, monkeypatch, cells, file_row, cell, message):
        _set_block_cells(monkeypatch, cells)
        rows = _grid(20, 4)
        if cell is None:
            rows[file_row - 2].append("7")
        else:
            rows[file_row - 2][2] = cell
        path = _write_grid(tmp_path, rows, 4)
        with pytest.raises(InvalidInput) as info:
            load_csv(path, "y")
        assert str(info.value) == message.format(r=file_row, path=path)

    @pytest.mark.parametrize("cells", [12, None])
    @pytest.mark.parametrize("ragged_first", [False, True])
    def test_first_problem_in_file_order_across_blocks(
            self, tmp_path, monkeypatch, cells, ragged_first):
        # file row 3 is in the first block, file row 15 in the fifth
        _set_block_cells(monkeypatch, cells)
        rows = _grid(20, 4)
        rows[1 if ragged_first else 13].append("7")
        rows[13 if ragged_first else 1][3] = "nan"
        path = _write_grid(tmp_path, rows, 4)
        expected = (f"{path}: row 3 has 5 cells, expected 4" if ragged_first
                    else f"{path}: row 3, column 'x3': non-finite value 'nan'")
        with pytest.raises(InvalidInput) as info:
            load_csv(path, "y")
        assert str(info.value) == expected

    @pytest.mark.parametrize("cells", [1, None])
    def test_one_row_with_bad_cell_needs_two_rows(self, tmp_path,
                                                  monkeypatch, cells):
        _set_block_cells(monkeypatch, cells)
        path = _write(tmp_path / "t.csv", "y,x1\nabc,inf\n")
        with pytest.raises(InvalidInput, match="need at least 2 data rows"):
            load_csv(path, "y")

    @pytest.mark.parametrize("n, p, exposure, cells", [
        (7, 40, "z", 64),       # 42 columns > 64 // 2: two rows per block
        (10_000, 2, None, 2 ** 10),
        (10_000, 2, None, None),
    ])
    def test_values_round_trip_bitwise(self, tmp_path, monkeypatch, n, p,
                                       exposure, cells):
        _set_block_cells(monkeypatch, cells)
        rng = np.random.default_rng(n + p)
        x = rng.standard_normal((n, p))
        x.flat[:4] = [-0.0, 5e-324, 1e16, -2.2250738585072014e-308]
        ds = Dataset(y=rng.standard_normal(n), x=x, z_name=exposure,
                     z=rng.random(n) if exposure else None)
        path = str(tmp_path / "rt.csv")
        save_csv(ds, path)
        back = load_csv(path, "y", exposure)
        assert back.y.tobytes() == ds.y.tobytes()
        assert back.x.tobytes() == ds.x.tobytes()
        if exposure:
            assert back.z.tobytes() == ds.z.tobytes()
        assert back.x.flags.f_contiguous
        for arr in (back.y, back.x, back.z):
            assert arr is None or arr.flags.owndata

    def test_traced_peak_below_four_times_output(self, tmp_path):
        # numpy reports its buffers to tracemalloc, so the peak counts the
        # cell strings and every float array alive during the parse
        rng = np.random.default_rng(4)
        ds = Dataset(y=rng.standard_normal(300),
                     x=rng.standard_normal((300, 2998)),
                     z=rng.random(300), z_name="z")
        path = str(tmp_path / "mem.csv")
        save_csv(ds, path)
        tracemalloc.start()
        try:
            back = load_csv(path, "y", "z")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = back.y.nbytes + back.x.nbytes + back.z.nbytes
        assert peak < 4 * output


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
