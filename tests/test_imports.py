"""The package's runtime dependencies are numpy and the standard library:
scipy and pytest are installed for the tests only."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import rankscreen

SOURCES = sorted(pathlib.Path(rankscreen.__file__).parent.glob("*.py"))


def _imported_modules(path):
    """(line, top-level name) of every absolute import; relative imports
    (``from . import x``, ``from .spline import y``) are within the
    package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "spline.py",
                                         "rpc_screen.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    allowed = sys.stdlib_module_names | {"numpy"}
    bad = [f"{path.name}:{line} imports {name}"
           for line, name in _imported_modules(path) if name not in allowed]
    assert not bad


def test_counting_on_a_discrete_response_leaves_numpy_ma_unloaded():
    # numpy.ma costs a cold run 10-16 ms to import; a Bernoulli y takes
    # the kernel's histogram steps, which must not pull it in
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from rankscreen.empirical import _count_columns\n"
        "rng = np.random.default_rng(0)\n"
        "y = rng.integers(0, 2, size=300).astype(float)\n"
        "_count_columns(y, rng.standard_normal((300, 4)),\n"
        "               lambda rx, c: c.sum(axis=0, dtype=float))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(pathlib.Path(rankscreen.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


_SIMULATE = ["simulate", "--scenario", "E4", "--n", "60", "--p", "12",
             "--reps", "2", "--seed", "1", "--method", "rc", "--method",
             "rpc-l2", "--method", "rpc-l1", "--method", "pearson",
             "--method", "kendall"]


@pytest.mark.parametrize("argv", [
    _SIMULATE,
    # six basis functions of degree 3 place two interior knots at
    # quantiles of the exposure
    ["screen", "--input", "{csv}", "--response", "y", "--exposure",
     "noise", "--method", "rpc-l1", "--n-basis", "6"],
], ids=["simulate-all-methods", "screen-rpc-l1"])
def test_commands_leave_numpy_ma_unloaded(argv, tmp_path):
    # np.median and np.quantile import numpy.ma, about 7 ms of a cold
    # command; the package takes medians and quantiles from its own sort
    golden = pathlib.Path(__file__).parent / "golden" / "ties.csv"
    argv = [a.format(csv=golden) for a in argv]
    argv += ["--output", str(tmp_path / "out.json")]
    code = (
        "import sys\n"
        "from rankscreen.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(pathlib.Path(rankscreen.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", [
    None,
    _SIMULATE,
    ["test", "--input", "{csv}", "--response", "y", "--all", "--n-boot",
     "20", "--seed", "1"],
    ["screen", "--input", "{csv}", "--response", "y", "--seed", "1"],
], ids=["load_csv", "simulate", "test-all", "screen"])
def test_forked_jobs_leave_process_pools_unloaded(tmp_path, argv):
    # the workers are os.fork children; importing multiprocessing.pool
    # alone costs a cold command about 11 ms
    path = tmp_path / "t.csv"
    path.write_text("y,x1,x2\n" + "".join(f"{i},{i * i},{-i}\n"
                                          for i in range(50)),
                    encoding="utf-8")
    if argv is None:  # only the CSV's rows are cut
        run = (f"ds = cli.load_csv({str(path)!r}, 'y')\n"
               "assert forks and ds.n == 50\n")
    else:  # only the replications, the columns or the counts are cut
        argv = [a.format(csv=path) for a in argv]
        run = ("cli._RANGE_BYTES = 2 ** 62\n"
               f"assert cli.main({argv!r}) == 0\n")
        # the columns fork only with a BLAS thread setter to pin
        run += ("assert forks or workers._openblas() is None\n"
                if argv[0] == "test" else "assert forks\n")
    code = (
        "import os, sys\n"
        "from rankscreen import bench, cli, empirical, workers\n"
        "cli._RANGE_BYTES = cli._BOOT_CELLS = bench._REPLICATION_CELLS = 1\n"
        "empirical._COUNT_CELLS = empirical._CELLS = empirical._STEP = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        f"{run}"
        "print(sorted({'multiprocessing', 'concurrent.futures'}\n"
        "             & set(sys.modules)))\n"
    )
    src = str(pathlib.Path(rankscreen.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    # a command prints its report first
    assert (out.strip() if argv is None
            else out.strip().splitlines()[-1]) == "[]"


def test_importing_the_package_needs_no_ctypes():
    # the BLAS thread setter is looked up through ctypes only when a
    # bootstrap forks; numpy imports ctypes if it can, so the check
    # blocks it rather than looking for it in sys.modules
    code = (
        "import sys\n"
        "sys.modules['ctypes'] = None\n"
        "import rankscreen\n"
        "from rankscreen import bench, cli, workers\n"
        "print('ok')\n"
    )
    src = str(pathlib.Path(rankscreen.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "ok"
