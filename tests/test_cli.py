import csv
import importlib
import json
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import rankscreen
from rankscreen import baselines, bench, cli, empirical, simgen, workers
from rankscreen.cli import load_csv, main, save_csv
from rankscreen.dataset import Dataset
from rankscreen.errors import HarnessError, InvalidInput
from rankscreen.simgen import SimDataset


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
def csv_never_read(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the CSV was read")

    monkeypatch.setattr(cli, "load_csv", fail)


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


def _force_split(monkeypatch, k, step=1):
    """Make every forked job cut even a small input into up to ``k``
    runs: `load_csv` a file's bytes, `save_csv` its rows, one per block,
    `run_replications` its replications, ``test --all`` its columns and the
    counting of `rc_utilities` and Kendall's tau-b its covariates, in
    chunks of ``step`` columns.  Each process needs one unit of work at
    least, and there are ``k`` CPUs in the affinity mask."""
    monkeypatch.setattr(cli, "_RANGE_BYTES", 1)
    monkeypatch.setattr(cli, "_BOOT_CELLS", 1)
    monkeypatch.setattr(bench, "_REPLICATION_CELLS", 1)
    monkeypatch.setattr(empirical, "_COUNT_CELLS", 1)
    monkeypatch.setattr(empirical, "_CELLS", 1)
    monkeypatch.setattr(empirical, "_STEP", step)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                        raising=False)


@pytest.fixture(params=[1, 2, 3], ids=lambda k: f"k{k}")
def split(request, monkeypatch):
    """Run a test with forked jobs cut into up to k = 1, 2 or 3 ranges,
    each but the first in a forked child.  ``calls`` gets one (slices,
    every child succeeded) pair per call of `workers._forked`; False means
    that this process did the whole job again, as it does after a failure
    here."""
    if request.param > 1:
        _force_split(monkeypatch, request.param)
    return types.SimpleNamespace(k=request.param,
                                 calls=_record_forked(monkeypatch))


def _record_forked(monkeypatch) -> list:
    """The (slices, every child succeeded) pair of each later call of
    `workers._forked`."""
    calls = []
    real = workers._forked

    def recorded(fn, bounds):
        calls.append((len(bounds) - 1, False))  # kept if it raises
        out = real(fn, bounds)
        calls[-1] = (len(bounds) - 1, out is not None)
        return out

    monkeypatch.setattr(workers, "_forked", recorded)
    return calls


def _no_retry(split):
    """No child failed, so no job was done again in this process."""
    assert all(ok for _, ok in split.calls)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _copy_in_a_process(source, target):
    """A process (not a thread, which would keep every job in one process)
    that copies the file ``source`` to ``target``, either of them a FIFO."""
    return subprocess.Popen([
        sys.executable, "-c",
        "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'), "
        "open(sys.argv[2], 'wb'))", str(source), str(target)])


def _exit_code(process) -> int:
    """The exit code of ``process``, killed if it runs for a minute."""
    try:
        return process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise


@pytest.mark.usefixtures("split")
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


@pytest.mark.usefixtures("split")
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

    @pytest.mark.parametrize("cells", [1, None])
    @pytest.mark.parametrize("record", ['"1\n",2', '"1\n\n\n",2'])
    def test_one_record_spanning_lines_needs_two_rows(
            self, tmp_path, monkeypatch, cells, record):
        # two or more lines, one record
        _set_block_cells(monkeypatch, cells)
        path = _write(tmp_path / "t.csv", f"y,x1\n{record}\n")
        with pytest.raises(InvalidInput, match="need at least 2 data rows"):
            load_csv(path, "y")

    @pytest.mark.parametrize("cells", [1, None])
    def test_first_record_longer_than_a_block(self, tmp_path, monkeypatch,
                                              cells):
        # the first block holds one record; the second row comes after it
        _set_block_cells(monkeypatch, cells)
        path = _write(tmp_path / "t.csv", 'y,x1\n"1\n\n\n",2\n3,abc\n')
        with pytest.raises(InvalidInput) as info:
            load_csv(path, "y")
        assert str(info.value) == (
            f"{path}: row 3, column 'x1': non-numeric value 'abc'")

    @pytest.mark.parametrize("n, p, exposure, cells", [
        (7, 40, "z", 64),       # 42 columns > 64 // 2: two rows per block
        (10_000, 2, None, 2 ** 10),
        (10_000, 2, None, None),
        (10_001, 3, "z", None),
    ])
    def test_values_round_trip_bitwise(self, tmp_path, monkeypatch, split,
                                       n, p, exposure, cells):
        _set_block_cells(monkeypatch, cells)
        rng = np.random.default_rng(n + p)
        x = rng.standard_normal((n, p))
        x.flat[:4] = [-0.0, 5e-324, 1e16, -2.2250738585072014e-308]
        ds = Dataset(y=rng.standard_normal(n), x=x, z_name=exposure,
                     z=rng.random(n) if exposure else None)
        path = tmp_path / "rt.csv"
        save_csv(ds, str(path))
        back = load_csv(str(path), "y", exposure)
        # save_csv's rows, in this process alone at k = 1
        assert split.calls[:1] == ([] if split.k == 1 else [(split.k, True)])
        _no_retry(split)
        assert back.y.tobytes() == ds.y.tobytes()
        assert back.x.tobytes() == ds.x.tobytes()
        if exposure:
            assert back.z.tobytes() == ds.z.tobytes()
        assert back.x.flags.f_contiguous
        for arr in (back.y, back.x, back.z):
            assert arr is None or arr.flags.owndata
        # one process writes the same bytes
        monkeypatch.setattr(cli, "_RANGE_BYTES", 2 ** 62)
        save_csv(ds, str(tmp_path / "one.csv"))
        assert (tmp_path / "one.csv").read_bytes() == path.read_bytes()

    # file row 12 is the third row of the fourth 12-cell block
    @pytest.mark.parametrize("cells", [12, None])
    @pytest.mark.parametrize("cell, value", [
        ('"7"', 7.0),
        ("1_0", 10.0),
        ("\uff17", 7.0),  # full-width digit seven
        (" 7 ", 7.0),
    ])
    def test_cell_only_float_accepts_in_later_block(
            self, tmp_path, monkeypatch, cells, cell, value):
        _set_block_cells(monkeypatch, cells)
        rows = _grid(20, 4)
        rows[10][2] = cell
        ds = load_csv(_write_grid(tmp_path, rows, 4), "y")
        expected = np.array(_grid(20, 4), dtype=float)
        expected[10, 2] = value
        assert np.column_stack([ds.y, ds.x]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cells", [12, None])
    @pytest.mark.parametrize("line, message", [
        ("", "{path}: row 12 has 0 cells, expected 4"),
        ("   ", "{path}: row 12 has 1 cells, expected 4"),
        ("1,2#x,3,4",
         "{path}: row 12, column 'x1': non-numeric value '2#x'"),
    ])
    def test_line_only_csv_reader_splits_in_later_block(
            self, tmp_path, monkeypatch, cells, line, message):
        _set_block_cells(monkeypatch, cells)
        rows = _grid(20, 4)
        rows[10] = [line]
        path = _write_grid(tmp_path, rows, 4)
        with pytest.raises(InvalidInput) as info:
            load_csv(path, "y")
        assert str(info.value) == message.format(path=path)

    @pytest.mark.parametrize("cells", [12, None])
    @pytest.mark.parametrize("bad_row", [None, 15])
    def test_multi_line_record_counts_as_one_row(
            self, tmp_path, monkeypatch, cells, bad_row):
        # file row 10 spans two lines, the second in the next block's lines
        _set_block_cells(monkeypatch, cells)
        rows = _grid(20, 4)
        rows[8][2] = '"7\n"'
        if bad_row is not None:
            rows[bad_row - 2][1] = "abc"
        path = _write_grid(tmp_path, rows, 4)
        if bad_row is not None:
            with pytest.raises(InvalidInput) as info:
                load_csv(path, "y")
            assert str(info.value) == (
                f"{path}: row 15, column 'x1': non-numeric value 'abc'")
            return
        ds = load_csv(path, "y")
        expected = np.array(_grid(20, 4), dtype=float)
        expected[8, 2] = 7.0
        assert np.column_stack([ds.y, ds.x]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cells", [3, 6, 9, 12, None])
    def test_literal_quote_before_multi_line_cell_still_names_row(
            self, tmp_path, monkeypatch, cells):
        # csv.reader keeps the '"' of 1"2 as a character, so the record
        # does not end where its quote count is first even; wherever the
        # block ends, the error names that record's row
        _set_block_cells(monkeypatch, cells)
        rows = _grid(20, 3)
        rows[3] = ['1"2', '"3\n4"', "5"]
        path = _write_grid(tmp_path, rows, 3)
        with pytest.raises(InvalidInput) as info:
            load_csv(path, "y")
        assert str(info.value).startswith(f"{path}: row 5")

    def test_open_quote_reads_one_field_limit_past_its_block(self):
        line = "1," + "2" * 998 + "\n"
        lines = ['"1,2\n'] + [line] * 1000
        first = next(cli._data_blocks(iter(lines), 2))
        # two lines, then lines until they pass the limit
        assert len(first) == 2 + csv.field_size_limit() // len(line) + 1

    @pytest.mark.parametrize("cells", [12, None])
    def test_stray_quote_is_field_limit_error_at_its_row(
            self, tmp_path, monkeypatch, cells):
        _set_block_cells(monkeypatch, cells)
        rows = _grid(2000, 4)
        rows[5][1] = '"' + rows[5][1]
        rows = [r + ["7" * 100] for r in rows]
        text = "\n".join(["y,x1,x2,x3,x4"] + [",".join(r) for r in rows])
        path = _write(tmp_path / "stray.csv", text + "\n")
        with pytest.raises(InvalidInput) as info:
            load_csv(path, "y")
        assert str(info.value) == (
            f"{path}: row 7: field larger than field limit "
            f"({csv.field_size_limit()})")

    @pytest.mark.parametrize("cells", [12, None])
    @pytest.mark.parametrize("bad", [False, True])
    def test_carriage_return_line_endings(self, tmp_path, monkeypatch,
                                          cells, bad):
        _set_block_cells(monkeypatch, cells)
        rows = _grid(20, 4)
        if bad:
            rows[10][3] = "nan"
        text = "\r".join(["y,x1,x2,x3"] + [",".join(r) for r in rows])
        path = tmp_path / "cr.csv"
        path.write_bytes((text + "\r").encode())
        if bad:
            with pytest.raises(InvalidInput) as info:
                load_csv(str(path), "y")
            assert str(info.value) == (
                f"{path}: row 12, column 'x3': non-finite value 'nan'")
            return
        ds = load_csv(str(path), "y")
        expected = np.array(_grid(20, 4), dtype=float)
        assert np.column_stack([ds.y, ds.x]).tobytes() == expected.tobytes()

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


def test_save_traced_peak_below_one_and_a_half_times_the_file(tmp_path,
                                                              monkeypatch):
    # one process holds the encoded blocks and one block's floats at once
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    rng = np.random.default_rng(5)
    ds = Dataset(y=rng.standard_normal(300),
                 x=rng.standard_normal((300, 1000)))
    path = tmp_path / "mem.csv"
    tracemalloc.start()
    try:
        save_csv(ds, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * path.stat().st_size


def _loadtxt_cells(rng):
    """Cell strings whose ``float`` values the C parser must reproduce:
    ``repr`` of extreme and random doubles, random 17-digit decimals, and
    forms ``float`` reads with an exponent sign, blanks or an explicit
    sign."""
    doubles = [-0.0, 5e-324, 1e308, -2.2250738585072014e-308]
    doubles += (rng.standard_normal(60)
                * 10.0 ** rng.integers(-300, 300, 60)).tolist()
    cells = [repr(v) for v in doubles]
    cells += [f"{v:.16e}" for v in rng.standard_normal(60)
              * 10.0 ** rng.integers(-300, 300, 60)]
    return cells + ["1.5E+3", " 1 ", "+inf", "-1e-400", "0.1"]


@pytest.mark.usefixtures("split")
class TestLoadtxtPath:
    """The block parse is ``np.loadtxt``; it must give ``float``'s bits."""

    def test_values_equal_per_cell_float_bitwise(self):
        cells = _loadtxt_cells(np.random.default_rng(5))
        width = 5
        rows = [cells[i:i + width] for i in range(0, len(cells), width)]
        rows[-1] += ["0"] * (width - len(rows[-1]))
        data = np.loadtxt([",".join(r) + "\n" for r in rows], delimiter=",",
                          comments=None, ndmin=2, dtype=float)
        expected = np.array([[float(c) for c in r] for r in rows])
        assert data.tobytes() == expected.tobytes()

    def test_finite_blocks_never_fall_back(self, tmp_path, monkeypatch,
                                           split):
        cells = [c for c in _loadtxt_cells(np.random.default_rng(6))
                 if c != "+inf"]
        rows = [cells[:2], cells[2:4]] + [[c, "1"] for c in cells[4:]]
        path = _write(tmp_path / "v.csv", "y,x1\n" + "".join(
            ",".join(r) + "\n" for r in rows))

        def no_fallback(*args):
            raise AssertionError("block left the loadtxt path")

        monkeypatch.setattr(cli, "_parse_block", no_fallback)
        _set_block_cells(monkeypatch, 8)
        ds = load_csv(path, "y")
        _no_retry(split)  # a child's range did not fall back either
        expected = np.array([[float(c) for c in r] for r in rows])
        assert np.column_stack([ds.y, ds.x]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cells", [12, None])
    def test_quote_all_copy_never_falls_back(self, tmp_path, monkeypatch,
                                             split, cells):
        # spreadsheet "quote all" exports: every cell quoted, CRLF endings
        rows = _grid(20, 4)
        plain = load_csv(_write_grid(tmp_path, rows, 4), "y")
        quoted = tmp_path / "quoted.csv"
        with open(quoted, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
            writer.writerow(["y", "x1", "x2", "x3"])
            writer.writerows(rows)

        def no_fallback(*args):
            raise AssertionError("block left the loadtxt path")

        monkeypatch.setattr(cli, "_parse_block", no_fallback)
        _set_block_cells(monkeypatch, cells)
        ds = load_csv(str(quoted), "y")
        _no_retry(split)
        assert ds.x_names == plain.x_names
        assert ds.y.tobytes() == plain.y.tobytes()
        assert ds.x.tobytes() == plain.x.tobytes()



class TestForkedRanges:
    """A file cut into ranges, each but the first parsed in a forked
    child, reads as in one process, and leaves no child behind."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"])
    @pytest.mark.parametrize("exposure", [None, "x2"])
    def test_line_endings_mark_and_exposure(self, tmp_path, split, newline,
                                            mark, exposure):
        rows = _grid(40, 4)
        text = newline.join(["y,x1,x2,x3"] + [",".join(r) for r in rows])
        path = tmp_path / "t.csv"
        path.write_bytes(mark + (text + newline).encode())
        ds = load_csv(str(path), "y", exposure)
        _no_retry(split)
        # a bare "\r" file has no "\n" to cut at: one range, read here
        assert [r for r, _ in split.calls] == (
            [] if split.k == 1 or newline == "\r" else [split.k])
        table = np.array(rows, dtype=float)
        x_cols = [1, 3] if exposure else [1, 2, 3]
        assert ds.y.tobytes() == table[:, 0].tobytes()
        assert ds.x.tobytes() == np.asfortranarray(table[:, x_cols]).tobytes()
        if exposure:
            assert ds.z.tobytes() == table[:, 2].tobytes()

    @pytest.mark.parametrize("bad_row", [None, 16, 30])
    def test_quoted_record_across_the_midpoint(self, tmp_path, split,
                                               bad_row):
        # file row 21 spans two lines and most of the file's bytes, so
        # every cut's target falls inside it
        rows = _grid(40, 4)
        pad = " " * 300
        rows[19][2] = f'"{pad}7\n{pad}"'
        if bad_row is not None:
            rows[bad_row - 2][1] = "abc"
        path = _write_grid(tmp_path, rows, 4)
        if bad_row is not None:
            with pytest.raises(InvalidInput) as info:
                load_csv(path, "y")
            assert str(info.value) == (
                f"{path}: row {bad_row}, column 'x1': non-numeric value 'abc'")
            _no_child_left()
            return
        ds = load_csv(path, "y")
        _no_retry(split)
        expected = np.array(_grid(40, 4), dtype=float)
        expected[19, 2] = 7.0
        assert np.column_stack([ds.y, ds.x]).tobytes() == expected.tobytes()
        if split.k > 1:  # one cut, after the record
            assert split.calls == [(2, True)]

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_cuts_end_records_and_leave_no_range_empty(self, tmp_path, k):
        # a long first line passes several targets; quoted cells span lines
        lines = ["1" * 60 + ",2\n", '"3\n",4\n', "5,6\n", '"7\n\n",8\r\n',
                 "9,10\n", "11,12"]
        data = "".join(lines).encode()
        path = tmp_path / "t.csv"
        path.write_bytes(b"y,x1\n" + data)
        with open(path, "rb") as fh:
            cuts = cli._cuts(fh, 5, 5 + len(data), k)
        assert cuts[0] == 5 and cuts[-1] == 5 + len(data)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        for cut in cuts[1:-1]:
            assert data[cut - 6:cut - 5] == b"\n"
            assert data[:cut - 5].count(b'"') % 2 == 0
        assert len(cuts) > 2

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 2 ** 16])
    def test_lines_split_and_decode_as_text_mode(self, tmp_path,
                                                 monkeypatch, chunk):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        raw = ("a,\u00e9\r\nb\rc\n\r\r\n\nd\u20ac,1\r".encode()
               + b"\xff\xe2\x82\ne\r\n\r")
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        with open(path, newline="", encoding="utf-8",
                  errors="surrogateescape") as fh:
            expected = list(fh)  # text mode's lines
        with open(path, "rb") as fh:
            assert list(cli._lines(fh)) == expected
            # a range that ends after a "\n" holds its lines and no more
            cut = raw.index(b"\n", 10) + 1
            fh.seek(0)
            head = list(cli._lines(fh, cut))
        assert "".join(head).encode("utf-8", "surrogateescape") == raw[:cut]
        assert head == expected[:len(head)]

    @pytest.mark.parametrize("row", [3, 50])
    def test_bad_cell_in_either_range_named_as_in_one_process(
            self, tmp_path, monkeypatch, capfd, row):
        # row 3 is in this process's range, row 50 in the child's
        _force_split(monkeypatch, 2)
        rows = _grid(60, 4)
        rows[row - 2][3] = "nan"
        path = _write_grid(tmp_path, rows, 4)
        with pytest.raises(InvalidInput) as info:
            load_csv(path, "y")
        assert str(info.value) == (
            f"{path}: row {row}, column 'x3': non-finite value 'nan'")
        _no_child_left()
        assert main(["screen", "--input", path, "--response", "y"]) == 1
        _no_child_left()
        # one error line, once: no child printed or returned into main
        assert capfd.readouterr() == (
            "", f"error: {path}: row {row}, column 'x3': non-finite value "
                "'nan'\n")

    @pytest.mark.parametrize("row", [5, 51])
    def test_bad_cell_parses_the_file_at_most_twice_here(
            self, tmp_path, monkeypatch, row):
        # row 5 is in this process's range, row 51 in the child's: its
        # range and then the whole file, and the child's range not again
        _force_split(monkeypatch, 2)
        rows = _grid(60, 4)
        rows[row - 2][3] = "nan"
        path = _write_grid(tmp_path, rows, 4)
        parses, real = [], cli._data_blocks

        def counted(lines, block_rows):
            parses.append(block_rows)
            return real(lines, block_rows)

        monkeypatch.setattr(cli, "_data_blocks", counted)
        with pytest.raises(InvalidInput) as info:
            load_csv(path, "y")
        assert str(info.value) == (
            f"{path}: row {row}, column 'x3': non-finite value 'nan'")
        assert len(parses) == 2
        _no_child_left()

    def test_no_child_left_after_load_and_save(self, tmp_path, monkeypatch):
        _force_split(monkeypatch, 3)
        rng = np.random.default_rng(8)
        ds = Dataset(y=rng.standard_normal(31),
                     x=rng.standard_normal((31, 5)))
        path = str(tmp_path / "t.csv")
        save_csv(ds, path)
        _no_child_left()
        back = load_csv(path, "y")
        _no_child_left()
        assert back.x.tobytes() == np.asfortranarray(ds.x).tobytes()

    @pytest.mark.parametrize("k", [1, 2])
    def test_save_to_a_fifo_writes_a_files_bytes(self, tmp_path,
                                                 monkeypatch, k):
        rng = np.random.default_rng(10)
        ds = Dataset(y=rng.standard_normal(31),
                     x=rng.standard_normal((31, 5)))
        path = tmp_path / "t.csv"
        save_csv(ds, str(path))
        _force_split(monkeypatch, k)
        forks = _count_forks(monkeypatch)
        fifo, copy = tmp_path / "fifo", tmp_path / "copy.csv"
        os.mkfifo(fifo)
        reader = _copy_in_a_process(fifo, copy)
        try:
            save_csv(ds, str(fifo))  # a FIFO cannot seek
        finally:
            assert _exit_code(reader) == 0
        assert len(forks) == k - 1
        assert copy.read_bytes() == path.read_bytes()

    def test_load_from_a_fifo_stays_in_one_process(self, tmp_path,
                                                   monkeypatch):
        rng = np.random.default_rng(11)
        ds = Dataset(y=rng.standard_normal(31),
                     x=rng.standard_normal((31, 5)),
                     z=rng.random(31), z_name="z")
        path = tmp_path / "t.csv"
        save_csv(ds, str(path))
        _force_split(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        from_file = load_csv(str(path), "y", "z")
        assert len(forks) == 1  # a regular file is cut in two
        forks.clear()
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = _copy_in_a_process(path, fifo)
        try:
            from_fifo = load_csv(str(fifo), "y", "z")  # of unknown size
        finally:
            assert _exit_code(writer) == 0
        assert forks == []
        assert from_fifo.x_names == from_file.x_names
        for name in ("y", "x", "z"):
            assert (getattr(from_fifo, name).tobytes()
                    == getattr(from_file, name).tobytes())
        assert from_fifo.x.flags.f_contiguous

    def test_fork_failure_leaves_the_job_here(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(9)
        ds = Dataset(y=rng.standard_normal(30),
                     x=rng.standard_normal((30, 4)))
        path = tmp_path / "t.csv"
        save_csv(ds, str(path))

        def fail():
            raise OSError("no more processes")

        _force_split(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", fail)
        back = load_csv(str(path), "y")
        assert back.x.tobytes() == np.asfortranarray(ds.x).tobytes()
        save_csv(back, str(tmp_path / "again.csv"))
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

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

    @pytest.mark.parametrize("flag, name", [
        (["--degree", "0"], "degree"), (["--n-basis", "2"], "n_basis"),
        (["--top-d", "0"], "budget"),
    ])
    def test_bad_option_is_usage_error(self, small_csv, capsys, flag, name):
        code = main(["screen", "--input", small_csv, "--response", "y",
                     "--method", "rc"] + flag)
        assert code == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("flag, name", [
        (["--threshold", "nan"], "threshold must be finite"),
        (["--threshold", "inf"], "threshold must be finite"),
        (["--top-k", "-3"], "--top-k must be >= 0"),
        (["--seed", "-1"], "seed must be an integer >= 0"),
    ])
    def test_bad_option_fails_before_csv_read(self, small_csv, csv_never_read,
                                              capsys, flag, name):
        code = main(["screen", "--input", small_csv, "--response", "y",
                     "--method", "rc"] + flag)
        assert code == 2
        assert name in capsys.readouterr().err

    def test_top_k_zero_prints_header_only(self, small_csv, capsys):
        code = main(["screen", "--input", small_csv, "--response", "y",
                     "--method", "rc", "--top-k", "0"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1].startswith("RC-SIS: top 0 of 3 predictors")

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

    @pytest.mark.parametrize("text, message", [
        (b"y,x\xff1\n1,2\n3,4\n",
         "row 1, column 2: bytes b'x\\xff1' are not UTF-8"),
        (b"y,x1\n1,2\n3,4\xfe\n",
         "row 3, column 'x1': bytes b'4\\xfe' are not UTF-8"),
        (b'"y","x1"\n"1","2"\n"3","\xc3"\n',
         "row 3, column 'x1': bytes b'\\xc3' are not UTF-8"),
    ])
    def test_bytes_not_utf8_are_input_error(self, tmp_path, capsys, text,
                                            message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        code = main(["screen", "--input", str(path), "--response", "y"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("row", [1, 3])
    def test_cell_over_field_limit_is_input_error(self, tmp_path, capsys,
                                                  row):
        lines = ["y,x1", "1,2", "3,4", "5,6"]
        lines[row - 1] = '"1' + "0" * 200_000 + '",2'
        path = _write(tmp_path / "big.csv", "\n".join(lines) + "\n")
        code = main(["screen", "--input", path, "--response", "y"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: row {row}: field larger than field limit "
            f"({csv.field_size_limit()})\n")

    def test_exposure_that_is_the_response_rejected(self, exposure_csv,
                                                     capsys):
        with pytest.raises(InvalidInput) as info:
            load_csv(exposure_csv, "y", "y")
        assert str(info.value) == (
            f"{exposure_csv}: the exposure 'y' is the response")
        code = main(["screen", "--input", exposure_csv, "--response", "y",
                     "--exposure", "y", "--method", "rpc-l2"])
        assert code == 1
        assert "is the response" in capsys.readouterr().err


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

    def test_repeated_method_gives_one_row(self, capsys, tmp_path):
        outputs = {}
        for methods in (["rc", "pearson"], ["rc", "pearson", "rc", "rc"]):
            argv = ["simulate", "--scenario", "E1", "--n", "40", "--p", "30",
                    "--reps", "2", "--seed", "4",
                    "--output", str(tmp_path / "sim.json"),
                    "--csv-output", str(tmp_path / "sim.csv")]
            for m in methods:
                argv += ["--method", m]
            assert main(argv) == 0
            outputs[len(methods)] = (capsys.readouterr().out,
                                     (tmp_path / "sim.json").read_bytes(),
                                     (tmp_path / "sim.csv").read_bytes())
        assert outputs[4] == outputs[2]
        rows = [ln.split()[0] for ln in outputs[4][0].splitlines()[2:]]
        assert rows == ["rc", "pearson"]

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

    def test_unknown_method_is_invalid_choice(self, capsys):
        code = main(["simulate", "--scenario", "E1", "--method", "bogus"])
        assert code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_rpc_on_exposure_free_scenario_is_usage_error(self, capsys):
        code = main(["simulate", "--scenario", "E1", "--n", "40", "--p",
                     "30", "--method", "rpc-l2", "--reps", "1",
                     "--seed", "1"])
        assert code == 2

    @pytest.mark.parametrize("extra, case, w0", [
        ([], 2, 0.95),
        (["--case", "3"], 3, 0.95),
        (["--w0", "0.9"], 2, 0.9),
        (["--case", "1"], 1, 1.0),
    ])
    def test_s_id_simulates_its_own_case(self, tmp_path, capsys, extra,
                                         case, w0):
        out = tmp_path / "sim.json"
        code = main(["simulate", "--scenario", "S1c2", "--n", "60", "--p",
                     "400", "--reps", "2", "--seed", "1", "--method", "rc",
                     "--output", str(out)] + extra)
        assert code == 0
        echo = json.loads(out.read_text())["scenario"]
        assert (echo["id"], echo["case"], echo["w0"]) == ("S1", case, w0)

    def test_case_on_continuous_design_is_usage_error(self, capsys):
        code = main(["simulate", "--scenario", "E1", "--case", "2",
                     "--reps", "1", "--seed", "1"])
        assert code == 2
        assert "E1 does not read 'case'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["--scenario", "E1", "--w0", "1.5"], "w0"),
        (["--scenario", "E3", "--rho0", "1.2"], "rho0"),
        (["--scenario", "E1", "--rho0", "1.2"], "rho0"),
        (["--scenario", "E6", "--rho0", "0.1", "--method", "rpc-l2"], "rho0"),
        (["--scenario", "E4", "--r2", "1.5", "--method", "rpc-l2"], "r2"),
        (["--scenario", "S2c1", "--error", "t3"], "'error'"),
        (["--scenario", "E1", "--r2", "0.3"], "'r2'"),
        (["--scenario", "E4", "--method", "rpc-l2", "--degree", "0"],
         "degree"),
        (["--scenario", "E1", "--d-n", "0"], "budget"),
        (["--scenario", "E1", "--seed", "-1"], "seed must be an integer >= 0"),
    ])
    def test_bad_parameter_fails_before_any_replication(self, monkeypatch,
                                                        capsys, argv, name):
        calls = []
        real = simgen.simulate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(simgen, "simulate", counted)
        monkeypatch.setattr(bench, "simulate", counted)
        code = main(["simulate", "--reps", "2", "--seed", "1"] + argv)
        assert code == 2
        assert calls == []
        err = capsys.readouterr().err
        assert "error:" in err and name in err

    @pytest.mark.parametrize("sid, unread", [("S2c1", "error"), ("E1", "r2")])
    def test_echo_gives_null_for_unread_parameters(self, tmp_path, capsys,
                                                   sid, unread):
        out = tmp_path / "sim.json"
        code = main(["simulate", "--scenario", sid, "--n", "40", "--p", "400",
                     "--reps", "1", "--seed", "1", "--output", str(out)])
        assert code == 0
        echo = json.loads(out.read_text())["scenario"]
        assert echo["id"] == sid[:2] and echo[unread] is None

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

    @pytest.mark.parametrize("flag, name", [
        (["--n-boot", "0"], "at least 2 bootstrap replicates"),
        (["--alpha", "2"], "alpha must be in (0, 1)"),
        (["--seed", "-1"], "seed must be an integer >= 0"),
    ])
    def test_bad_bootstrap_setting_fails_before_csv_read(
            self, small_csv, csv_never_read, capsys, flag, name):
        code = main(["test", "--input", small_csv, "--response", "y",
                     "--all", "--seed", "1"] + flag)
        assert code == 2
        assert name in capsys.readouterr().err

    def test_overflowing_replicates_name_the_column(self, tmp_path, capsys):
        path = _write(tmp_path / "huge.csv", "y,x1,big\n" + "".join(
            f"{i},{i},{v}\n" for i, v in
            enumerate(["1.7e308", "1.7e308", "-1e308", "0", "1", "2"])))
        code = main(["test", "--input", path, "--response", "y", "--all",
                     "--n-boot", "50", "--seed", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("x1: statistic")
        assert captured.err == ("error: covariate 'big': x_col's "
                                "sign-flipped replicates overflow\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_golden_output_on_any_number_of_blas_threads(self, tmp_path,
                                                         threads):
        # the bootstrap's counting product may run on BLAS threads; its
        # every sum is an exact integer, so the bytes cannot depend on them.
        # At n = 48 OpenBLAS likely keeps each product on one thread;
        # test_empirical's test_choice_counts_on_any_number_of_blas_threads
        # runs products large enough to be split
        golden = pathlib.Path(__file__).parent / "golden"
        out = tmp_path / "test.json"
        argv = ["test", "--input", str(golden / "ties.csv"), "--response",
                "y", "--all", "--n-boot", "99", "--seed", "3",
                "--output", str(out)]
        src = str(pathlib.Path(rankscreen.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c",
                        f"from rankscreen.cli import main; main({argv!r})"],
                       env=env, check=True, capture_output=True)
        assert out.read_bytes() == (golden / "test_all.json").read_bytes()

    @pytest.mark.parametrize("flag", [["--degree", "9"], ["--n-basis", "2"]])
    def test_spline_flags_rejected(self, small_csv, capsys, flag):
        code = main(["test", "--input", small_csv, "--response", "y",
                     "--all", "--n-boot", "20", "--seed", "1"] + flag)
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


GOLDEN = pathlib.Path(__file__).parent / "golden"

# `test --all` forks only where an OpenBLAS thread setter is found
_PINNED = workers._openblas() is not None

_SIMULATE_ALL = ["simulate", "--scenario", "E4", "--n", "60", "--p", "12",
                 "--reps", "5", "--seed", "4", "--method", "rc", "--method",
                 "rpc-l2", "--method", "rpc-l1", "--method", "pearson",
                 "--method", "kendall"]
# counting jobs of `_SIMULATE_ALL`: rc, rpc-l2, rpc-l1 and kendall in each
# of its 5 replications
_COUNT_JOBS = 4 * 5


def _simulate_bytes(tmp_path, capsys):
    """(JSON, CSV, stdout) of `_SIMULATE_ALL`, which must leave no child."""
    out, table = tmp_path / "sim.json", tmp_path / "sim.csv"
    assert main(_SIMULATE_ALL + ["--output", str(out),
                                 "--csv-output", str(table)]) == 0
    _no_child_left()
    return out.read_bytes(), table.read_bytes(), capsys.readouterr().out


def _simulate_matches_golden(tmp_path, capsys):
    """`simulate` of E1 with rc and kendall gives the golden JSON, CSV and
    stdout, and leaves no child."""
    out, table = tmp_path / "sim.json", tmp_path / "sim.csv"
    assert main(["simulate", "--scenario", "E1", "--n", "40", "--p", "200",
                 "--reps", "6", "--seed", "4", "--method", "rc", "--method",
                 "kendall", "--output", str(out),
                 "--csv-output", str(table)]) == 0
    _no_child_left()
    assert out.read_bytes() == (GOLDEN / "simulate_e1.json").read_bytes()
    assert table.read_bytes() == (GOLDEN / "simulate_e1.csv").read_bytes()
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / "simulate_e1.txt").read_bytes()


def _test_all_matches_golden(tmp_path, capsys):
    """``test --all`` on the golden CSV gives the golden JSON and stdout,
    and leaves no child."""
    out = tmp_path / "test.json"
    assert main(["test", "--input", str(GOLDEN / "ties.csv"), "--response",
                 "y", "--all", "--n-boot", "99", "--seed", "3",
                 "--output", str(out)]) == 0
    _no_child_left()
    assert out.read_bytes() == (GOLDEN / "test_all.json").read_bytes()
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / "test_all.txt").read_bytes()


def _count_forks(monkeypatch):
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    return forks


def _in_a_child(fn):
    """``fn``, except that a forked child calling it exits 3 at once."""
    parent = os.getpid()

    def call(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return fn(*args, **kwargs)

    return call


def _generator(fail=lambda r: False):
    """A callable scenario of 30 x 4 normal data that raises for the
    replications r where ``fail(r)``."""

    def make(seq):
        r = seq.entropy[1]
        if fail(r):
            raise RuntimeError(f"boom at {r}")
        rng = np.random.Generator(np.random.Philox(seq))
        y = rng.standard_normal(30)
        x = rng.standard_normal((30, 4))
        x[:, 1] += y
        return SimDataset(dataset=Dataset(y=y, x=x), active=np.array([1]),
                          scenario=None)

    return make


class TestForkedJobs:
    """`simulate`'s replications and ``test --all``'s columns, each slice
    but the first in a forked child, give the bytes and messages of one
    process and leave no child behind."""

    def test_simulate_bytes_do_not_depend_on_the_process_count(
            self, tmp_path, monkeypatch, capsys, split):
        forked = _simulate_bytes(tmp_path, capsys)
        _no_retry(split)
        assert [r for r, _ in split.calls] == ([] if split.k == 1
                                                else [split.k])
        _force_split(monkeypatch, 1)
        assert forked == _simulate_bytes(tmp_path, capsys)

    def test_simulate_matches_golden(self, tmp_path, capsys, split):
        _simulate_matches_golden(tmp_path, capsys)
        _no_retry(split)
        assert [r for r, _ in split.calls] == ([] if split.k == 1
                                                else [split.k])

    def test_test_all_matches_golden(self, tmp_path, capsys, split):
        _test_all_matches_golden(tmp_path, capsys)
        _no_retry(split)
        # the CSV's rows, then the columns
        jobs = 0 if split.k == 1 else 1 + _PINNED
        assert [r for r, _ in split.calls] == [split.k] * jobs

    @pytest.mark.parametrize("k", [2, 3])
    def test_no_job_forks_inside_a_worker(self, tmp_path, monkeypatch,
                                          capsys, k):
        _force_split(monkeypatch, k)
        forks = _count_forks(monkeypatch)
        # one process for a job started here or in a child while one runs
        assert workers._ordered_map(lambda i: workers._count(10 ** 9, 1),
                                    3, 3) == [1, 1, 1]
        assert len(forks) == 2 and workers._count(10 ** 9, 1) == k
        # rc's and kendall's counts stay in their replication's process
        forks.clear()
        _simulate_matches_golden(tmp_path, capsys)
        assert len(forks) == k - 1

    def test_a_live_thread_keeps_every_job_here(self, tmp_path, monkeypatch,
                                                capsys):
        serial = _simulate_bytes(tmp_path, capsys)
        _force_split(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert _simulate_bytes(tmp_path, capsys) == serial
            _test_all_matches_golden(tmp_path, capsys)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []

    def test_fork_failure_leaves_the_job_here(self, tmp_path, monkeypatch,
                                              capsys):
        serial = _simulate_bytes(tmp_path, capsys)

        def fail():
            raise OSError("no more processes")

        _force_split(monkeypatch, 2)
        calls = _record_forked(monkeypatch)
        monkeypatch.setattr(os, "fork", fail)
        assert _simulate_bytes(tmp_path, capsys) == serial
        _test_all_matches_golden(tmp_path, capsys)
        # the replications, then the counts of each replication redone
        # here, then the CSV's rows and the columns
        assert calls == [(2, False)] * (1 + _COUNT_JOBS + 1 + _PINNED)

    def test_failed_worker_leaves_the_job_here(self, tmp_path, monkeypatch,
                                               capsys):
        serial = _simulate_bytes(tmp_path, capsys)
        _force_split(monkeypatch, 3)
        calls = _record_forked(monkeypatch)
        monkeypatch.setattr(bench, "simulate", _in_a_child(simgen.simulate))
        monkeypatch.setattr(cli, "wild_bootstrap_test",
                            _in_a_child(cli.wild_bootstrap_test))
        assert _simulate_bytes(tmp_path, capsys) == serial
        _test_all_matches_golden(tmp_path, capsys)
        # the replications, then the counts of each replication redone
        # here, whose children call no simulate (replication 0's four were
        # counted here in the job, and are kept), then the CSV's rows and
        # the columns
        assert calls == ([(3, False)] + [(3, True)] * (_COUNT_JOBS - 4)
                         + [(3, True), (3, False)][:1 + _PINNED])

    def test_overflow_in_a_worker_names_the_first_bad_column(
            self, tmp_path, monkeypatch, capfd):
        # with two processes, x1 and x2 are tested here and the rest,
        # big1 first, in the child
        big = ["1.7e308", "1.7e308", "-1e308", "0", "1", "2"]
        rows = "".join(f"{i},{i},{-i},{v},{i % 3},{v}\n"
                       for i, v in enumerate(big))
        path = _write(tmp_path / "huge.csv", "y,x1,x2,big1,x4,big2\n" + rows)
        argv = ["test", "--input", path, "--response", "y", "--all",
                "--n-boot", "50", "--seed", "1"]
        assert main(argv) == 1
        serial = capfd.readouterr()
        assert serial.err == ("error: covariate 'big1': x_col's sign-flipped "
                              "replicates overflow\n")
        assert serial.out.count("->") == 2
        _force_split(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        assert main(argv) == 1
        _no_child_left()
        assert forks and capfd.readouterr() == serial

    def test_replication_failures_do_not_depend_on_the_process_count(
            self, monkeypatch):
        # one failure in 20 replications is reported; five of ten raise
        flaky = _generator(lambda r: r == 13)
        broken = _generator(lambda r: r % 2 == 1)
        reports, messages = [], []
        for k in (1, 2, 3):
            _force_split(monkeypatch, k)
            forks = _count_forks(monkeypatch)
            report = bench.run_replications(flaky, ["rc", "kendall"], 20, 5)
            reports.append((report.n_failures, report.to_json_dict(),
                            report.to_csv_rows()))
            with pytest.raises(HarnessError) as info:
                bench.run_replications(broken, ["rc"], 10, 5)
            messages.append(str(info.value))
            _no_child_left()
            assert len(forks) == 2 * (k - 1)
        assert reports[0][0] == 1
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert messages[0].startswith("5/10 replications failed (rep 1: "
                                      "RuntimeError('boom at 1'); rep 3: ")
        assert messages[1] == messages[0] and messages[2] == messages[0]

    @staticmethod
    def _shown(monkeypatch, fn, k, action):
        """The warnings `_ordered_map` shows over 6 units of ``fn`` by up
        to ``k`` processes, under the filter ``action``."""
        forks = _count_forks(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert workers._ordered_map(fn, 6, k) == list(range(6))
        _no_child_left()
        assert len(forks) == k - 1
        return [(w.category, str(w.message), w.filename, w.lineno)
                for w in caught]

    def test_warnings_in_a_worker_are_shown_here_in_order(self,
                                                          monkeypatch):
        def fn(i):
            warnings.warn(f"unit {i}", UserWarning)
            warnings.warn("every unit", RuntimeWarning)
            return i

        # "default" shows a message once per location, in any process
        for action, count in (("always", 12), ("default", 7)):
            serial = self._shown(monkeypatch, fn, 1, action)
            assert len(serial) == count
            assert self._shown(monkeypatch, fn, 2, action) == serial
            assert self._shown(monkeypatch, fn, 3, action) == serial

    def test_warnings_are_shown_once_when_a_later_worker_fails(
            self, monkeypatch):
        parent = os.getpid()

        def fn(i):
            warnings.warn(f"unit {i}", UserWarning)
            warnings.warn("every unit", RuntimeWarning)
            if i == 5 and os.getpid() != parent:  # in the last child only
                raise RuntimeError("boom")
            return i

        for action, count in (("always", 12), ("default", 7)):
            serial = self._shown(monkeypatch, fn, 1, action)
            assert len(serial) == count
            calls = _record_forked(monkeypatch)
            # the first child's warnings are not shown before the last
            # child's failure, nor this process's twice
            assert self._shown(monkeypatch, fn, 3, action) == serial
            assert calls == [(3, False)]

    def test_replication_warnings_do_not_depend_on_the_process_count(
            self, monkeypatch):
        def constant_last(seq):  # Pearson warns in every replication
            rng = np.random.Generator(np.random.Philox(seq))
            y = rng.standard_normal(30)
            x = rng.standard_normal((30, 4))
            x[:, 0] += y
            x[:, 3] = 1.0
            return SimDataset(dataset=Dataset(y=y, x=x),
                              active=np.array([0]), scenario=None)

        seen = []
        for k in (1, 2, 3):
            _force_split(monkeypatch, k)
            forks = _count_forks(monkeypatch)
            with pytest.warns(UserWarning) as record:
                report = bench.run_replications(constant_last, ["pearson"],
                                                6, 5)
            _no_child_left()
            assert len(forks) == k - 1
            seen.append(([(str(w.message), w.filename, w.lineno)
                          for w in record], report.to_json_dict()))
        assert len(seen[0][0]) == 6
        assert seen[1] == seen[0] and seen[2] == seen[0]

    def test_any_error_in_a_column_follows_the_lines_before_it(
            self, tmp_path, monkeypatch, capsys):
        # x2 is the only column whose first value is 0.5
        path = _write(tmp_path / "t.csv", "y,x1,x2,x3\n" + "".join(
            f"{i},{i * i},{i + 0.5},{-i}\n" for i in range(30)))
        real = cli.wild_bootstrap_test

        def fails_on_x2(y, x_col, **kwargs):
            if x_col[0] == 0.5:
                raise RuntimeError("boom")
            return real(y, x_col, **kwargs)

        monkeypatch.setattr(cli, "wild_bootstrap_test", fails_on_x2)
        argv = ["test", "--input", path, "--response", "y", "--all",
                "--n-boot", "50", "--seed", "1"]
        outs = []
        for k in (1, 2, 3):
            _force_split(monkeypatch, k)
            with pytest.raises(RuntimeError, match="boom"):
                main(argv)
            _no_child_left()
            outs.append(capsys.readouterr().out)
        assert outs[0].startswith("x1: ") and outs[0].count("->") == 1
        assert outs[1] == outs[0] and outs[2] == outs[0]


class TestBlasPin:
    """Forked bootstrap workers run with one BLAS thread each."""

    def test_pinned_while_the_workers_run_and_restored(self, tmp_path,
                                                       monkeypatch, capsys):
        lib = workers._openblas()
        if lib is None:
            pytest.skip("no OpenBLAS thread setter in this process")
        get, put = lib
        _force_split(monkeypatch, 2)
        seen = []
        real = workers._ordered_map

        def recorded(fn, n, k):
            seen.append((get(), k))
            return real(fn, n, k)

        monkeypatch.setattr(workers, "_ordered_map", recorded)
        first = get()
        put(2)  # a count other than the pin's
        try:
            before = get()
            if before == 1:
                pytest.skip("this OpenBLAS runs one thread at most")
            _test_all_matches_golden(tmp_path, capsys)
            # the CSV's rows, on BLAS's own threads, then the columns
            assert seen == [(before, 2), (1, 2)]
            assert get() == before
        finally:
            put(first)

    def test_without_a_setter_the_columns_stay_here(self, tmp_path,
                                                    monkeypatch, capsys):
        _force_split(monkeypatch, 2)
        monkeypatch.setattr(cli, "_RANGE_BYTES", 2 ** 62)  # one CSV reader
        monkeypatch.setattr(workers, "_openblas", lambda: None)
        forks = _count_forks(monkeypatch)
        _test_all_matches_golden(tmp_path, capsys)
        assert forks == []


_rc_screen = importlib.import_module("rankscreen.rc_screen")


def _covariates(kind):
    """y, tied (Bernoulli) or continuous, and 40 x 300 covariates with
    rounded (tied) and constant columns among them."""
    rng = np.random.default_rng(12)
    y = ((rng.random(40) < 0.4).astype(float) if kind == "tied"
         else rng.standard_normal(40))
    x = rng.standard_normal((40, 300))
    x[:, ::7] = np.round(x[:, ::7])
    x[:, [5, 120]] = 1.0
    return y, x


def _split_chunks(monkeypatch, k):
    """`_force_split` into up to k processes, with the 300 covariates of
    `_covariates` counted in five 64-column chunks, the last 44 wide: a
    count that two and three processes do not divide, so they take 2 + 3
    and 1 + 2 + 2 chunks."""
    _force_split(monkeypatch, k, step=64)
    assert empirical._chunk_width(40) == 64


class TestForkedCounting:
    """The counts of `rc_utilities` and Kendall's tau-b, their column
    chunks cut into runs each but the first counted in a forked child, give
    the bits and messages of one process and leave no child behind."""

    @pytest.mark.parametrize("kind", ["tied", "continuous"])
    def test_utilities_do_not_depend_on_the_process_count(self, monkeypatch,
                                                          kind):
        y, x = _covariates(kind)
        seen = []
        for k in (1, 2, 3):
            _split_chunks(monkeypatch, k)
            forks = _count_forks(monkeypatch)
            with warnings.catch_warnings(record=True):  # constant columns
                seen.append((
                    _rc_screen.rc_utilities(y, x).tobytes(),
                    baselines.kendall_sis(Dataset(y=y, x=x)).utilities
                    .tobytes()))
            _no_child_left()
            assert len(forks) == 2 * (k - 1)
        assert seen[1] == seen[0] and seen[2] == seen[0]
        assert seen[0][0] == np.array(
            [_rc_screen.rc_utility(y, x[:, j]) for j in range(300)]).tobytes()

    @pytest.mark.parametrize("method", ["rc", "kendall", "rpc-l2"])
    @pytest.mark.parametrize("kind", ["tied", "continuous"])
    def test_screen_bytes_do_not_depend_on_the_process_count(
            self, tmp_path, monkeypatch, capsys, method, kind):
        y, x = _covariates(kind)
        z = np.random.default_rng(3).random(40)
        path = str(tmp_path / "t.csv")
        save_csv(Dataset(y=y, x=x, z=z, z_name="z"), path)
        out, table = tmp_path / "screen.json", tmp_path / "screen.csv"
        argv = ["screen", "--input", path, "--response", "y", "--exposure",
                "z", "--method", method, "--top-k", "200", "--seed", "1",
                "--output", str(out), "--csv-output", str(table)]
        seen = []
        for k in (1, 2, 3):
            _split_chunks(monkeypatch, k)
            monkeypatch.setattr(cli, "_RANGE_BYTES", 2 ** 62)  # one reader
            calls = _record_forked(monkeypatch)
            with warnings.catch_warnings(record=True):  # constant columns
                assert main(argv) == 0
            _no_child_left()
            assert calls == ([] if k == 1 else [(k, True)])
            seen.append((out.read_bytes(), table.read_bytes(),
                         capsys.readouterr().out))
        assert seen[1] == seen[0] and seen[2] == seen[0]
        assert seen[0][2].count("utility = ") == 200

    @pytest.mark.parametrize("column", [3, 150, 280])
    def test_non_finite_column_named_as_in_one_process(self, monkeypatch,
                                                       column):
        # column 3 is counted here, 150 in the first child and 280 in the
        # last chunk, which the last child counts, with column 295, also
        # not finite, after it
        y, x = _covariates("continuous")
        x[7, column] = np.inf
        x[2, 295] = np.nan
        for k in (1, 2, 3):
            _split_chunks(monkeypatch, k)
            forks = _count_forks(monkeypatch)
            for fn in (_rc_screen.rc_utilities, baselines._kendall_taus):
                with pytest.raises(InvalidInput) as info:
                    fn(y, x)
                assert str(info.value) == (f"covariate column {column} is "
                                           "not finite")
                _no_child_left()
            assert len(forks) == 2 * (k - 1)


class TestUsageLine:
    @pytest.mark.parametrize("argv", [
        ["screen", "--top-k", "-3"],
        ["screen", "--seed", "-1"],
        ["screen", "--method", "rpc-l1"],
        ["simulate", "--scenario", "E4", "--seed", "-1"],
        ["simulate"],
        ["test", "--all", "--n-boot", "1"],
        ["test", "--all", "--seed", "-1"],
        ["test"],
    ])
    def test_usage_error_prints_its_command(self, argv, small_csv, capsys):
        if argv[0] != "simulate":
            argv = argv + ["--input", small_csv, "--response", "y"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: rankscreen {argv[0]} ")
        assert f"rankscreen {argv[0]}: error: " in err


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
