"""Smoke test of the benchmark itself at a tiny input size.

Every workload runs untraced and traced; the last stdout line must carry
exactly the metric names BENCHMARK.json declares, and the correctness pass
must run and succeed.  Without the program's sources the benchmark must fail
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "error_ratio 0.000000" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / SPEC["paths"][0], tmp_path / SPEC["paths"][0],
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "game", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_all_prints_every_workload():
    proc = run(ROOT, "all", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {f"{w['name']}.{m['name']}" for w in SPEC["workloads"]
                                      for m in SPEC["end_to_end"]}
    assert proc.stdout.count("error_ratio 0.000000") == len(SPEC["workloads"])
