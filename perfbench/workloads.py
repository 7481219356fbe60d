"""The benchmark's workloads: one ``rankscreen`` CLI workflow each, the
inputs it is given, the work units it reports and the checks on its output.

Each workload differs from the others in n, in p and in which layer takes
most of the time:

``screen_csv``    ``screen --method rc`` on a headed CSV of scenario S1c1
                  (Bernoulli response, heavily tied y).  CSV parsing and the
                  batched O(n^2 p) counting kernel share the time.
``simulate_rpc``  ``simulate`` of the exposure-adjusted design E4 with all
                  five methods.  L1 IRLS residualization dominates; no CSV.
``test_boot``     ``test --all`` on a CSV of scenario E1: one small
                  (n x n_boot) counting block per column plus the
                  per-column Rademacher matrix.

The checks recompute what they can by brute force in this file, so they do
not share code with the library's counting kernels.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

# The CLI's worker cap in every workload: this machine's 2 cores, never more,
# so results stay comparable across runs.
THREADS = 2
SAMPLED_COLUMNS = 8
SIM_METHODS = ("rc", "rpc-l2", "rpc-l1", "pearson", "kendall")


def brute_utility(y: np.ndarray, x: np.ndarray) -> float:
    """RC utility from counts enumerated over all O(n^2) pairs.

    The final floating-point expression is the library's documented one, so
    an exact count gives an exactly equal utility.
    """
    n = y.size
    ley = y[None, :] <= y[:, None]  # ley[i, k] = y_k <= y_i
    lex = x[None, :] <= x[:, None]
    ry = ley.sum(axis=1)
    rx = lex.sum(axis=1)
    c = (ley & lex).sum(axis=1)
    num = (n + 1.0) * c - ry * rx
    rad = (ry * (n + 1 - ry)) * (rx * (n + 1 - rx))
    rho = num / np.sqrt(rad)
    return float(np.mean(rho * rho))


def _read_columns(path: str, names) -> dict:
    """The named columns of a headed CSV, parsed with the csv module
    (independently of ``rankscreen.cli.load_csv``)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        idx = [header.index(name) for name in names]
        rows = [[float(row[i]) for i in idx] for row in reader]
    data = np.array(rows)
    return {name: data[:, k] for k, name in enumerate(names)}


@dataclass(frozen=True)
class Check:
    """Outcome of checking one command's output."""

    attempted: int
    failed: int
    problems: list
    # False when the only problems are replication failures the report lists
    wrong: bool = True


class CsvWorkload:
    """A workload whose set-up generates a scenario and writes it as CSV."""

    def __init__(self, name, why, scenario, n, p):
        self.name, self.why = name, why
        self.scenario, self.n, self.p = scenario, n, p

    def setup(self, seed: int, csv_path: str) -> dict:
        return {"scenario": self.scenario, "n": self.n, "p": self.p,
                "seed": seed, "csv": csv_path}

    def reference(self, seed: int, csv_path: str) -> dict:
        """Brute-force utilities of a seed-chosen sample of columns."""
        with open(csv_path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        x_names = [h for h in header if h != "y"]
        rng = np.random.default_rng([seed, 1])
        k = min(SAMPLED_COLUMNS, len(x_names))
        sample = sorted(rng.choice(len(x_names), size=k, replace=False))
        names = [x_names[j] for j in sample]
        cols = _read_columns(csv_path, ["y"] + names)
        return {"x_names": x_names,
                "utility": {nm: brute_utility(cols["y"], cols[nm])
                            for nm in names}}


class ScreenWorkload(CsvWorkload):
    def argv(self, seed, csv_path, out_path):
        return ["screen", "--input", csv_path, "--response", "y",
                "--method", "rc", "--threads", str(THREADS),
                "--seed", str(seed), "--output", out_path]

    def units(self) -> str:
        return f"{self.n * self.p} cells (n*p, n={self.n}, p={self.p})"

    def check(self, rc, out_path, ref) -> Check:
        problems = _screen_problems(rc, out_path, ref, self.n)
        return Check(1, int(bool(problems)), problems)


def _screen_problems(rc, out_path, ref, n) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    with open(out_path, encoding="utf-8") as fh:
        out = json.load(fh)
    names = ref["x_names"]
    util = out["utilities"]
    problems = []
    if sorted(util) != sorted(names) or sorted(out["ranking"]) != sorted(names):
        return ["utilities/ranking do not cover every column exactly once"]
    for name, expected in ref["utility"].items():
        if util[name] != expected:
            problems.append(f"utility of {name}: {util[name]!r} != "
                            f"brute force {expected!r}")
    index = {name: j for j, name in enumerate(names)}
    key = [(-util[name], index[name]) for name in out["ranking"]]
    if key != sorted(key):
        problems.append("ranking is not descending in utility with ties "
                        "broken by column index")
    d = int(math.floor(n / math.log(n)))
    if out["selected"] != out["ranking"][:d]:
        problems.append(f"selected is not the first {d} entries of ranking")
    return problems


class BootWorkload(CsvWorkload):
    def __init__(self, name, why, scenario, n, p, n_boot):
        super().__init__(name, why, scenario, n, p)
        self.n_boot = n_boot

    def argv(self, seed, csv_path, out_path):
        return ["test", "--input", csv_path, "--response", "y", "--all",
                "--n-boot", str(self.n_boot), "--threads", str(THREADS),
                "--seed", str(seed), "--output", out_path]

    def units(self) -> str:
        return (f"{self.p * self.n_boot} replicates (columns*n_boot, "
                f"n={self.n}, p={self.p}, n_boot={self.n_boot})")

    def check(self, rc, out_path, ref) -> Check:
        p = len(ref["x_names"])
        if rc != 0:
            return Check(p, p, [f"exit code {rc}"])
        with open(out_path, encoding="utf-8") as fh:
            results = json.load(fh)["results"]
        if [r["column"] for r in results] != ref["x_names"]:
            return Check(p, p, ["not exactly one result per column, "
                                "in column order"])
        lo = 1.0 / (self.n_boot + 1)
        problems = []
        failed = 0
        for r in results:
            bad = []
            if not lo <= r["p_value"] <= 1.0:
                bad.append(f"p-value {r['p_value']} outside [{lo}, 1]")
            if r["reject"] != (r["statistic"] > r["critical_value"]):
                bad.append("reject != statistic > critical_value")
            expected = ref["utility"].get(r["column"])
            if expected is not None and r["statistic"] != expected:
                bad.append(f"statistic {r['statistic']!r} != brute force "
                           f"{expected!r}")
            failed += bool(bad)
            problems.extend(f"{r['column']}: {b}" for b in bad)
        return Check(p, failed, problems)


class SimulateWorkload:
    """No input file: the simulate command generates its own replications."""

    def __init__(self, name, why, n, p, reps):
        self.name, self.why = name, why
        self.n, self.p, self.reps = n, p, reps

    def setup(self, seed, csv_path):
        return None

    def reference(self, seed, csv_path):
        return {"seed": seed}

    def argv(self, seed, csv_path, out_path):
        argv = ["simulate", "--scenario", "E4", "--r2", "0.3",
                "--error", "cauchy3", "--n", str(self.n), "--p", str(self.p)]
        for m in SIM_METHODS:
            argv += ["--method", m]
        return argv + ["--reps", str(self.reps), "--threads", str(THREADS),
                       "--seed", str(seed), "--output", out_path]

    def units(self) -> str:
        return (f"{self.reps} replications x {len(SIM_METHODS)} methods "
                f"(n={self.n}, p={self.p})")

    def check(self, rc, out_path, ref) -> Check:
        if rc != 0:
            return Check(self.reps, self.reps, [f"exit code {rc}"])
        with open(out_path, encoding="utf-8") as fh:
            out = json.load(fh)
        problems = []
        fields = {"schema", "scenario", "n_reps", "n_failures", "d_n",
                  "active_columns", "methods", "seed"}
        if not fields <= set(out):
            problems.append(f"missing fields {sorted(fields - set(out))}")
        else:
            if out["n_reps"] + out["n_failures"] != self.reps:
                problems.append("n_reps + n_failures != requested reps")
            if out["seed"] != ref["seed"]:
                problems.append("seed not echoed")
            if [m.get("method") for m in out["methods"]] != list(SIM_METHODS):
                problems.append("methods do not list all five methods")
            for m in out["methods"]:
                if not ({"median_ranks", "median_mms", "rsd_mms",
                         "proportion"} <= set(m)
                        and len(m["median_ranks"]) == len(out["active_columns"])
                        and 0.0 <= m["proportion"] <= 1.0):
                    problems.append(f"method entry malformed: {m}")
        if problems:
            return Check(self.reps, self.reps, problems)
        return Check(self.reps, int(out["n_failures"]),
                     [f"{out['n_failures']} replication failures"]
                     if out["n_failures"] else [], wrong=False)


def make_workloads(tiny: bool = False) -> dict:
    """The three workloads; ``tiny`` shrinks them for the self-test."""
    if tiny:
        sizes = dict(screen=(30, 400), sim=(40, 10, 2), boot=(30, 6, 20))
    else:
        sizes = dict(screen=(500, 2000), sim=(200, 250, 2), boot=(200, 40, 500))
    wls = [
        ScreenWorkload("screen_csv",
                  "CSV parse plus one wide O(n^2 p) counting block at n=500; "
                  "tied Bernoulli y; no spline or bootstrap code",
                  "S1c1", *sizes["screen"]),
        SimulateWorkload("simulate_rpc",
                    "exposure-adjusted E4 design, all five methods: L1 IRLS "
                    "residualization dominates; counting at n=200; no CSV",
                    *sizes["sim"]),
        BootWorkload("test_boot",
                 "wild bootstrap on every column: many small counting blocks "
                 "and a per-column Rademacher matrix; Fenwick path",
                 "E1", *sizes["boot"]),
    ]
    return {w.name: w for w in wls}
