"""Smoke test of the benchmark: every workload at its tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run prints every metric BENCHMARK.json names, with its
unit, that no check fails on two seeds, that the traced run's coverage and
isolation checks hold, and that the benchmark refuses to run without the
package's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def check_metrics(proc, section):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"], proc.stderr
    assert f"fail_ratio 0.0 (0/{result['attempted']})" in lines
    return result


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload, seed):
    result = check_metrics(run(workload, seed, 0), "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    check_metrics(run(workload, 3, 1), "per_layer")


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
