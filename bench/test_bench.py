"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

Most start bench/run.py as a separate process, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tracer import Tracer
from worker import LAYER_METRICS, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "1")


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, done.stderr
    return last


def test_end_to_end_metrics_match_benchmark_json():
    metrics = result(run_bench("--workload", "cli-oneshot", "--seed", "5", "--seconds", "1", "--trace", "0"))["metrics"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    runs = [
        result(run_bench("--workload", workload, "--seed", "11", "--seconds", "0.2", "--trace", "1"))["metrics"]
        for _ in range(2)
    ]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in runs[0].items()} == declared
    counts = {name for name, unit in declared.items() if unit in COUNT_UNITS}
    assert counts and {n: runs[0][n]["value"] for n in counts} == {n: runs[1][n]["value"] for n in counts}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "sweep-dense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _fake_package(name: str) -> None:
    """A three-module stand-in for fhkex in which run_grid_point has been renamed."""
    analysis = types.ModuleType(f"{name}.analysis")
    experiments = types.ModuleType(f"{name}.experiments")
    cli = types.ModuleType(f"{name}.cli")
    exec(
        "def key_prob(k, n, p):\n    return 0.5\n"
        "def min_transmissions(k):\n    return [key_prob(k, n, 0.5) for n in range(3)]\n",
        analysis.__dict__,
    )
    experiments.key_prob = analysis.key_prob
    exec(
        "def run_trials(n):\n    return [key_prob(1, 1, 0.5) for _ in range(n)]\n"
        "def sweep(n):\n    return run_trials(n)\n",
        experiments.__dict__,
    )
    cli.analysis = analysis
    exec("def main():\n    return analysis.min_transmissions(1)\n", cli.__dict__)
    modules = (types.ModuleType(name), analysis, experiments, cli)
    sys.modules.update({mod.__name__: mod for mod in modules})


def test_renamed_functions_are_reported_absent():
    _fake_package("fakefhkex")
    tracer = Tracer(always=[name for name, _ in LAYER_METRICS])
    tracer.install("fakefhkex")
    experiments, cli = sys.modules["fakefhkex.experiments"], sys.modules["fakefhkex.cli"]
    tracer.begin_op(0)
    experiments.sweep(4)
    cli.main()
    first = tracer.end_op()
    # min_transmissions is traced through cli's view of analysis; key_prob through the
    # experiments binding and inside analysis (it is named in LAYER_METRICS)
    assert first.nested[("cli.main", "analysis.min_transmissions")] == 1
    assert first.calls["analysis.key_prob"] == 7
    assert first.nested[("analysis.min_transmissions", "analysis.key_prob")] == 3
    # sweep calls run_trials inside its own layer, so that call has no span
    assert "experiments.run_trials" not in first.calls
    assert first.self_s["cli.main"] == pytest.approx(first.s["cli.main"] - first.s["analysis.min_transmissions"])
    metrics, absent = layer_metrics(tracer, {})
    assert "experiments.run_grid_point.calls" in absent and "experiments.run_grid_point.self_s" in absent
    assert metrics["analysis.min_transmissions.evals_per_call"]["value"] == 3
    assert set(metrics).isdisjoint(absent)
