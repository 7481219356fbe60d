"""Benchmark of the ``rankscreen`` CLI workflows.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 1] \
        [--out BENCH_label.json]

Run it from the root of a checkout; it imports the package from ``src``.

``--trace 0`` (timed run) sets the workload up at least three times (and
until three seconds of set-up), each time in a fresh interpreter, then runs the workload's command in a fresh interpreter
(package already imported) again and again until ``--seconds`` have passed
and at least three commands have run.  Every command's output is checked.
It reports the medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``.

``--trace 1`` (traced run) runs all three workloads with every public
function of the package wrapped in a span (tracer.py): per workload two
traced passes (set-up and command) and one untraced command in between.
It reports per-layer self times, exact work counts and process figures,
named ``<workload>.<layer metric>``, and flags any count that differs
between the two passes.  It is a fixed amount of work; ``--seconds``
applies to timed runs only.  Every workload is traced in every traced run so
that no reported layer time is a constant zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is ``# env`` and the environment record.  ``failed / attempted`` is the
failed share: an operation is a command (screen_csv), a replication
(simulate_rpc) or a tested column (test_boot), and it fails on a nonzero
exit, a failed output check or a replication failure the report lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracer
import workloads as wl_mod

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# Cheap set-ups (the import alone) repeat until this much set-up time.
SETUP_MIN_S = 3.0
MIN_REPEATS = 3
TRACE_PASSES = 2
# Every run must end within 180 s; stop starting commands after this.
BUDGET_S = 165.0

# Per-layer metrics reported by the traced run, per workload: the layers
# each workload should move (see README.md for the expected effects).
_DCM = "empirical.dominance_counts_matrix"
LAYERS = {
    "screen_csv": [
        "cli.load_csv.self_s", "cli.load_csv.cells", "cli.load_csv.peak_mb",
        "cli.save_csv.self_s", "cli.save_csv.bytes", "cli.main.self_s",
        f"{_DCM}.self_s", f"{_DCM}.calls", f"{_DCM}.pairs",
        f"{_DCM}.bytes_computed",
        "empirical.leq_counts_matrix.self_s",
        "empirical.leq_counts_matrix.cells",
        "rc_screen.rc_utilities.self_s", "rc_screen.rc_utilities.columns",
        "simgen.simulate.self_s", "simgen.simulate.cells",
        "report.build_report.self_s",
    ],
    "simulate_rpc": [
        "cli.main.self_s",
        "spline.fit_l1.self_s", "spline.fit_l1.calls",
        "spline.fit_l1.iterations", "spline.fit_l1.converged_ratio",
        "spline.fit_l1.ridged", "spline.design_matrix.calls",
        "rpc_screen.residualize.l1.self_s", "rpc_screen.residualize.l2.self_s",
        "baselines.kendall_sis.self_s", "baselines.pearson_sis.self_s",
        "simgen.simulate.self_s", "simgen.simulate.cells",
        "bench.run_replications.self_s", "bench.run_replications.replications",
        "bench.run_replications.failures",
        f"{_DCM}.self_s", f"{_DCM}.calls", f"{_DCM}.pairs",
        "empirical.leq_counts_matrix.self_s",
        "rc_screen.rc_utilities.self_s", "rc_screen.rc_utilities.columns",
        "report.build_report.self_s",
    ],
    "test_boot": [
        "cli.load_csv.self_s", "cli.load_csv.cells", "cli.load_csv.peak_mb",
        "cli.save_csv.self_s", "cli.save_csv.bytes", "cli.main.self_s",
        f"{_DCM}.self_s", f"{_DCM}.calls", f"{_DCM}.pairs",
        f"{_DCM}.bytes_computed",
        "empirical.leq_counts_matrix.self_s",
        "empirical.leq_counts_matrix.cells",
        "empirical.dominance_counts.self_s", "empirical.dominance_counts.calls",
        "rc_screen.rc_utilities.self_s", "rc_screen.rc_utilities.columns",
        "rc_screen.wild_bootstrap_test.self_s",
        "rc_screen.wild_bootstrap_test.replicates",
        "rc_screen.rademacher.self_s", "rc_screen.rademacher.distinct_ratio",
        "simgen.simulate.self_s", "simgen.simulate.cells",
    ],
}
PROCESS = ["process.cpu_s", "process.cpu_per_wall",
           "process.trace_overhead_s", "process.uncovered_share",
           "failed_share"]
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def layer_unit(metric: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its last name part."""
    last = metric.rsplit(".", 1)[-1]
    if last in ("self_s", "cpu_s", "trace_overhead_s"):
        return "s", "lower"
    if last in ("bytes", "bytes_computed"):
        return "bytes", "lower"
    if last == "peak_mb":
        return "MB", "lower"
    if last in ("converged_ratio", "distinct_ratio", "cpu_per_wall"):
        return "ratio", "higher"
    if last in ("uncovered_share", "failed_share"):
        return "share", "lower"
    return "count", "lower"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    return [(f"{w}.{m}", *layer_unit(m))
            for w in LAYERS for m in LAYERS[w] + PROCESS]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts each measured step in a fresh interpreter and waits for it."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self._n = 0

    def left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, setup=None, argv=None, traced=False) -> dict | None:
        """Result of one step, or None (reason on stderr) if it failed."""
        self._n += 1
        result = self.work / f"step{self._n}.json"
        spec = {"setup": setup, "argv": argv, "traced": traced,
                "result": str(result)}
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(spec)], cwd=ROOT,
                env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=max(1.0, self.left()))
        except subprocess.TimeoutExpired:
            print(f"step timed out: {spec}", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.exists():
            print(f"step failed ({proc.returncode}): {spec}\n"
                  f"{proc.stderr.decode(errors='replace')[-2000:]}",
                  file=sys.stderr)
            return None
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
        result.unlink()
        return out


class Outcome:
    """Attempted / failed operations and the problems found."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.correct = True

    def add_command(self, wl, res, out_path: Path, ref):
        rc = res["rc"] if res is not None else -1
        check = wl.check(rc, str(out_path), ref)
        self.attempted += check.attempted
        self.failed += check.failed
        if check.problems and check.wrong:
            self.correct = False
        self.problems.extend(f"{wl.name}: {p}" for p in check.problems)
        if out_path.exists():
            out_path.unlink()


def _set_up(runner: Runner, wl, seed: int, csv_path: Path, traced=False):
    setup = wl.setup(seed, str(csv_path))
    res = runner.run(setup=setup, traced=traced)
    if res is None:
        raise SystemExit(f"{wl.name}: set-up failed")
    return res


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# timed run
# ---------------------------------------------------------------------------

def timed_run(runner: Runner, wl, seed: int, seconds: float) -> dict:
    csv_path = runner.work / f"{wl.name}.csv"
    out_path = runner.work / f"{wl.name}.out.json"
    # Warm-up: the first import after a checkout writes bytecode caches.
    runner.run()
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        setups.append(_set_up(runner, wl, seed, csv_path)["setup_s"])
    ref = wl.reference(seed, str(csv_path))
    outcome = Outcome()
    samples = {"wall_s": [], "peak_rss_mb": [], "cpu_s": []}
    start = time.perf_counter()
    while (len(samples["wall_s"]) < MIN_REPEATS
           or time.perf_counter() - start < seconds):
        last = samples["wall_s"][-1] if samples["wall_s"] else 0.0
        if samples["wall_s"] and runner.left() < 2 * last:
            break
        res = runner.run(argv=wl.argv(seed, str(csv_path), str(out_path)))
        outcome.add_command(wl, res, out_path, ref)
        if res is None:
            break
        for key in samples:
            samples[key].append(res[key])
    if not samples["wall_s"]:
        raise SystemExit(f"{wl.name}: no command completed")
    return {
        "metrics": {"wall_s": median(samples["wall_s"]),
                    "setup_s": median(setups),
                    "peak_rss_mb": median(samples["peak_rss_mb"])},
        "samples": dict(samples, setup_s=setups),
        "outcome": outcome,
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _pass_values(steps: list[dict]) -> dict:
    """Self times, calls and counts of one traced pass (set-up + command)."""
    self_s, calls, counts, distinct = {}, {}, {}, {}
    wall = uncovered = 0.0
    for step in steps:
        summary = tracer.summarize(step["spans"], *step["traced_window"])
        wall += summary["wall_s"]
        uncovered += summary["uncovered_s"]
        for name, v in summary["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + v
        for name, v in summary["calls"].items():
            calls[name] = calls.get(name, 0) + v
        for name, v in step["counts"].items():
            if name.endswith("peak_mb"):
                counts[name] = max(counts.get(name, v), v)
            else:
                counts[name] = counts.get(name, 0) + v
        for name, (n_distinct, n_calls) in step["distinct"].items():
            d = distinct.setdefault(name, [0, 0])
            d[0] += n_distinct
            d[1] += n_calls
    return {"self_s": self_s, "calls": calls, "counts": counts,
            "distinct": distinct, "wall_s": wall, "uncovered_s": uncovered}


def layer_value(metric: str, vals: dict) -> float:
    layer, last = metric.rsplit(".", 1)
    if last == "self_s":
        return vals["self_s"].get(layer, 0.0)
    if last == "calls":
        return vals["calls"].get(layer, 0)
    if last == "distinct_ratio":
        n_distinct, n_calls = vals["distinct"].get(layer, (0, 0))
        return n_distinct / n_calls if n_calls else 0.0
    if last == "converged_ratio":
        n_calls = vals["calls"].get(layer, 0)
        return vals["counts"].get(f"{layer}.converged", 0) / n_calls \
            if n_calls else 0.0
    return vals["counts"].get(metric, 0)


def traced_run(runner: Runner, wls: dict, seed: int) -> dict:
    metrics, moved, outcomes = {}, [], {}
    for name, wl in wls.items():
        csv_path = runner.work / f"{name}.csv"
        out_path = runner.work / f"{name}.out.json"
        runner.run()  # warm-up, as in timed_run
        outcome = Outcome()
        passes, ref, untraced, cmd_walls = [], None, None, []
        for k in range(TRACE_PASSES):
            steps = []
            if wl.setup(seed, str(csv_path)) is not None:
                steps.append(_set_up(runner, wl, seed, csv_path, traced=True))
            if ref is None:
                ref = wl.reference(seed, str(csv_path))
            if k == 1:
                untraced = runner.run(
                    argv=wl.argv(seed, str(csv_path), str(out_path)))
                outcome.add_command(wl, untraced, out_path, ref)
            res = runner.run(argv=wl.argv(seed, str(csv_path), str(out_path)),
                             traced=True)
            outcome.add_command(wl, res, out_path, ref)
            if res is None or (k == 1 and untraced is None):
                raise SystemExit(f"{name}: traced run failed")
            steps.append(res)
            cmd_walls.append(res["wall_s"])
            passes.append(_pass_values(steps))
        for metric in LAYERS[name]:
            values = [layer_value(metric, p) for p in passes]
            if metric.endswith("self_s"):
                metrics[f"{name}.{metric}"] = statistics.fmean(values)
            else:
                metrics[f"{name}.{metric}"] = values[0]
                if not metric.endswith("peak_mb") and len(set(values)) > 1:
                    moved.append(f"{name}.{metric}: {values}")
        metrics[f"{name}.process.cpu_s"] = untraced["cpu_s"]
        metrics[f"{name}.process.cpu_per_wall"] = untraced["cpu_per_wall"]
        metrics[f"{name}.process.trace_overhead_s"] = (
            statistics.fmean(cmd_walls) - untraced["wall_s"])
        metrics[f"{name}.process.uncovered_share"] = (
            sum(p["uncovered_s"] for p in passes)
            / sum(p["wall_s"] for p in passes))
        metrics[f"{name}.failed_share"] = outcome.failed / outcome.attempted
        outcomes[name] = outcome
    return {"metrics": metrics, "moved": moved, "outcomes": outcomes}


# ---------------------------------------------------------------------------
# environment record and reporting
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              env=env, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rankscreen").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, workload: str, seconds: float, trace: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "threads": wl_mod.THREADS,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_timed(wl, res: dict):
    o, samples = res["outcome"], res["samples"]
    print(f"{wl.name}: {wl.units()}; {len(samples['wall_s'])} commands, "
          f"{len(samples['setup_s'])} set-ups")
    for name, unit in END_TO_END:
        print(f"  {name:<14}{_fmt(res['metrics'][name]):>12} {unit}"
              f"  (median of {len(samples[name])})")
    print(f"  {'failed_share':<14}{_fmt(o.failed / o.attempted):>12} share"
          f"  ({o.failed} of {o.attempted} operations)")
    cpu_per_wall = median(samples["cpu_s"]) / res["metrics"]["wall_s"]
    print(f"  {'cpu_per_wall':<14}{_fmt(cpu_per_wall):>12} ratio")


def report_traced(result: dict):
    print("traced run (per-layer metrics):")
    for name, unit, _ in per_layer_metrics():
        print(f"  {name:<58}{_fmt(result['metrics'][name]):>14} {unit}")
    for w in LAYERS:
        print(f"  {w}: share of traced wall time no span covers = "
              f"{_fmt(result['metrics'][f'{w}.process.uncovered_share'])}; "
              f"trace overhead = "
              f"{_fmt(result['metrics'][f'{w}.process.trace_overhead_s'])} s")
    for line in result["moved"]:
        print(f"  COUNT MOVED between identical traced passes: {line}")


def main(argv=None) -> int:
    wls_all = wl_mod.make_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wls_all) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full record to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rankscreen" / "__init__.py").is_file():
        print(f"error: no rankscreen sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    return run(wls_all, args)


def run(wls_all: dict, args) -> int:
    names = list(wls_all) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    deadline = time.perf_counter() + BUDGET_S * (
        len(names) + args.trace if args.workload == "all" else 1)
    runner = Runner(work, deadline)
    record = {"env": environment(args.seed, args.workload, args.seconds,
                                 args.trace)}
    metrics, outcomes = {}, []
    try:
        if args.trace == 0 or args.workload == "all":
            for name in names:
                res = timed_run(runner, wls_all[name], args.seed, args.seconds)
                report_timed(wls_all[name], res)
                outcomes.append(res["outcome"])
                prefix = f"{name}." if args.workload == "all" else ""
                for metric, unit in END_TO_END:
                    metrics[prefix + metric] = {"value": res["metrics"][metric],
                                                "unit": unit}
                record.setdefault("timed", {})[name] = {
                    "metrics": res["metrics"], "samples": res["samples"]}
        if args.trace == 1:
            res = traced_run(runner, wls_all, args.seed)
            report_traced(res)
            outcomes.extend(res["outcomes"].values())
            units = {name: unit for name, unit, _ in per_layer_metrics()}
            for metric, value in res["metrics"].items():
                metrics[metric] = {"value": value, "unit": units[metric]}
            record["traced"] = {"metrics": res["metrics"],
                                "counts_moved": res["moved"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for o in outcomes:
        for problem in o.problems:
            print(f"  check: {problem}")
    line = {
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }
    record["result"] = line
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
