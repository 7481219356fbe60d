"""Tiny-size self-test of the benchmark: runs every workload at a few rows
and columns through the real CLI, and checks the result schema, the output
checks and the traced counts.  It asserts no timings.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
import workloads

TINY = workloads.make_workloads(tiny=True)
HERE = Path(__file__).resolve().parent


def _runner(tmp_path):
    return run.Runner(tmp_path, time.perf_counter() + 300)


def test_brute_utility_is_one_for_a_strictly_increasing_pair():
    y = np.arange(12.0)
    assert workloads.brute_utility(y, 3.0 * y + 1.0) == 1.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_run_passes_its_output_checks(tmp_path, name):
    res = run.timed_run(_runner(tmp_path), TINY[name], seed=5, seconds=0)
    outcome = res["outcome"]
    assert outcome.correct and outcome.failed == 0, outcome.problems
    assert outcome.attempted >= run.MIN_REPEATS
    assert set(res["metrics"]) == {m for m, _ in run.END_TO_END}
    assert len(res["samples"]["setup_s"]) >= run.SETUP_REPEATS


def test_checks_reject_wrong_outputs(tmp_path):
    runner = _runner(tmp_path)
    screen, boot = TINY["screen_csv"], TINY["test_boot"]
    csv_path, out = tmp_path / "in.csv", tmp_path / "out.json"
    run._set_up(runner, screen, 3, csv_path)
    ref = screen.reference(3, str(csv_path))
    res = runner.run(argv=screen.argv(3, str(csv_path), str(out)))
    assert screen.check(res["rc"], str(out), ref).problems == []
    payload = json.loads(out.read_text())
    name = next(iter(ref["utility"]))
    payload["utilities"][name] += 1e-12
    payload["selected"] = payload["selected"][:-1]
    out.write_text(json.dumps(payload))
    problems = screen.check(0, str(out), ref).problems
    assert any("brute force" in p for p in problems)
    assert any("selected" in p for p in problems)
    assert screen.check(1, str(out), ref).failed == 1

    run._set_up(runner, boot, 3, csv_path)
    ref = boot.reference(3, str(csv_path))
    res = runner.run(argv=boot.argv(3, str(csv_path), str(out)))
    assert boot.check(res["rc"], str(out), ref).problems == []
    payload = json.loads(out.read_text())
    payload["results"][0]["reject"] = not payload["results"][0]["reject"]
    payload["results"][1]["p_value"] = 0.0
    out.write_text(json.dumps(payload))
    check = boot.check(0, str(out), ref)
    assert check.failed == 2 and check.wrong


def test_traced_run_reports_every_layer_metric_with_stable_counts(tmp_path):
    first = run.traced_run(_runner(tmp_path), TINY, seed=7)
    names = {name for name, _, _ in run.per_layer_metrics()}
    assert set(first["metrics"]) == names
    assert first["moved"] == []
    for outcome in first["outcomes"].values():
        assert outcome.correct and outcome.failed == 0, outcome.problems
    assert first["metrics"]["test_boot.rc_screen.rademacher.distinct_ratio"] \
        == 1 / TINY["test_boot"].p
    second = run.traced_run(_runner(tmp_path), TINY, seed=7)
    for name, unit, _ in run.per_layer_metrics():
        if unit in ("count", "bytes", "ratio") and "cpu_per_wall" not in name:
            assert first["metrics"][name] == second["metrics"][name], name


def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(TINY)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_metrics()


def test_final_line_schema(tmp_path, capsys):
    args = SimpleNamespace(workload="screen_csv", seed=2, seconds=0, trace=0,
                           out=str(tmp_path / "bench.json"))
    assert run.run(TINY, args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m for m, _ in run.END_TO_END}
    env = json.loads(lines[-2][len("# env "):])
    for key in ("nproc", "cpu_model", "python", "numpy", "git_commit",
                "seed", "threads"):
        assert key in env
    assert json.loads((tmp_path / "bench.json").read_text())["result"] == line


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "screen_csv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
