"""Smoke test of the benchmark at tiny sizes.

Every workload must print every metric BENCHMARK.json names, with its unit,
in both modes; the correctness gate must reject a wrong true theta; and a
directory without the rvolest sources must make the benchmark fail.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_emitted_with_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_gate_rejects_wrong_theta0(workload, tmp_path):
    # two passes, as in a run: 16 fits narrow the band below the shift
    batches = [workloads.build(workload, workloads.batch_seed(3, k), tiny=True)
               for k in range(2)]
    results = [workloads.run_pass(b, str(tmp_path), threads=1) for b in batches]
    theta0 = batches[0].theta0
    assert workloads.check(results, theta0) == []
    assert workloads.check(results, theta0 + 1.0)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "mc-jumpdiff", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
