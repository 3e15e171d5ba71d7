"""Fast self-test of the benchmark: every workload, untraced and traced, at the smallest sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable, *SPEC["command"][1:]]


def run(args, cwd=ROOT):
    return subprocess.run(
        [*COMMAND, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


# `length` is not gated by BENCHMARK.json, but the full report runs it.
WORKLOADS = ["ball", "length", "synthesis", "diagrams"]


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = run(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"]
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    assert "failed_ratio = 0 " in proc.stdout
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "synthesis":
        assert "words.word_symbols" in proc.stdout


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "ball", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
