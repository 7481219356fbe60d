"""Byte-identity guard: CLI outputs on a small committed CSV must equal the
committed expected files, byte for byte.

Only outputs that are exact functions of integer counts are pinned (RC and
Kendall utilities, the wild bootstrap, and the ranks that `simulate` takes
from them on E1 data, which are sums and products of seeded draws): Pearson
and spline outputs depend on the BLAS and libm in their last bits.  An intended output change replaces
the expected file and says so in CHANGES.md.
"""

from pathlib import Path

import pytest

from rankscreen import cli, empirical
from rankscreen.cli import main

GOLDEN = Path(__file__).parent / "golden"
DATA = str(GOLDEN / "ties.csv")


def _expected(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


@pytest.fixture(autouse=True, params=["real", "shrunk"])
def budgets(request, monkeypatch):
    if request.param == "shrunk":
        monkeypatch.setattr(cli, "_CELLS", 1)
        monkeypatch.setattr(empirical, "_CELLS", 1)
        monkeypatch.setattr(empirical, "_STEP", 1)
        # the screens count one column per chunk, and the kernel adds every
        # y-tie group of two or more rows in one histogram step; the
        # bootstrap counts its replicates with one product either way
        monkeypatch.setattr(empirical, "_GROUP_COST", 0)


def test_screen_rc_json_and_stdout(tmp_path, capsys):
    out = tmp_path / "rc.json"
    assert main(["screen", "--input", DATA, "--response", "y",
                 "--method", "rc", "--output", str(out)]) == 0
    assert out.read_bytes() == _expected("screen_rc.json")
    assert capsys.readouterr().out.encode() == _expected("screen_rc.txt")


def test_screen_kendall_csv_output(tmp_path):
    out = tmp_path / "kendall.csv"
    assert main(["screen", "--input", DATA, "--response", "y",
                 "--method", "kendall", "--top-d", "4",
                 "--output", str(tmp_path / "kendall.json"),
                 "--csv-output", str(out)]) == 0
    assert out.read_bytes() == _expected("screen_kendall.csv")


def test_test_all_json_and_stdout(tmp_path, capsys):
    out = tmp_path / "test.json"
    assert main(["test", "--input", DATA, "--response", "y", "--all",
                 "--n-boot", "99", "--seed", "3", "--output", str(out)]) == 0
    assert out.read_bytes() == _expected("test_all.json")
    assert capsys.readouterr().out.encode() == _expected("test_all.txt")


def test_simulate_json_csv_and_stdout(tmp_path, capsys):
    out, table = tmp_path / "sim.json", tmp_path / "sim.csv"
    assert main(["simulate", "--scenario", "E1", "--n", "40", "--p", "200",
                 "--reps", "6", "--seed", "4", "--method", "rc", "--method",
                 "kendall", "--output", str(out),
                 "--csv-output", str(table)]) == 0
    assert out.read_bytes() == _expected("simulate_e1.json")
    assert table.read_bytes() == _expected("simulate_e1.csv")
    assert capsys.readouterr().out.encode() == _expected("simulate_e1.txt")
