"""Smoke test of the benchmark: every workload once at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from tracing import summarise

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def test_benchmark_json_matches_the_harness():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.FULL) == list(run.TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(run.TINY))
def test_tiny_workload_emits_every_metric_and_runs_every_check(name, trace):
    workload = run.TINY[name]
    result = run.run_workload(workload, seed=3, seconds=0, trace=trace, setup_spawns=1)

    assert result["correct"], result["failures"]
    assert result["attempted"] == run.MIN_ITERATIONS + (run.TRACED_ITERATIONS if trace else 0)
    expected_checks = ["exit code 0", *(n for n, _ in workload.check(result["stdout"])),
                       "stdout byte-identical to the first iteration"]
    assert result["check_names"] == expected_checks
    line = run.result_line(result)
    units = {n: m["unit"] for n, m in line["metrics"].items()}
    assert units == (run.PER_LAYER if trace else run.END_TO_END)
    for metric in line["metrics"].values():
        assert type(metric["value"]) in (int, float)
    if trace:
        metrics = result["metrics"]
        assert all(metrics[f"{layer}.self_s"] > 0 for layer in run.LAYERS)
        assert metrics["verification.checks_failed"] == 0


# Counts the first traced prototype recorded at the inputs the workloads
# were stated at; simulate's depends on its seed, 7.
PROTOTYPE_COUNTS = {
    "verify_sweep": {"geometry.polygon_stats.calls": 9_876,
                     "enumeration.enumerate_polygons.calls": 408},
    "simulate": {"montecarlo.distinct_masks": 25_926},
    "explore": {"explorer.triangle_signature.calls": 1_344, "explorer.found": 21},
}


@pytest.mark.parametrize("name", list(PROTOTYPE_COUNTS))
def test_stated_inputs_reproduce_the_prototype_counts(name):
    workload = run.STATED[name]
    it = run.run_iteration(workload, 7, run.OUT / f"report-stated-{name}.json",
                           trace_id=f"{name}-stated")
    assert it.exit_code == 0 and all(ok for _, ok in workload.check(it.stdout)), it.stderr
    counts = dict(it.report["trace"]["counts"],
                  **{"montecarlo.distinct_masks": summarise(it.report["trace"])["hulls_in_simulate"]})
    assert {key: counts.get(key, 0) for key in PROTOTYPE_COUNTS[name]} == PROTOTYPE_COUNTS[name]


@pytest.mark.parametrize("name", list(run.TINY))
def test_output_checks_reject_tampered_output(name):
    workload = run.TINY[name]
    stdout = run.spawn([sys.executable, str(run.CHILD), "--src", str(run.SRC), "--report",
                        str(run.OUT / "report-smoke.json"), "--", *workload.argv(3)]).stdout
    assert all(ok for _, ok in workload.check(stdout))
    truncated = "".join(stdout.splitlines(keepends=True)[:-1])
    assert not all(ok for _, ok in workload.check(truncated))
    assert not all(ok for _, ok in workload.check(""))


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
