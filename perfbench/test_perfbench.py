"""Smoke tests of the benchmark at tiny sizes: every workload, traced and untraced."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path / "out")


def test_workloads_match_the_declaration():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload(workload, trace):
    result, info = bench.run_benchmark(workload, seed=5, seconds=0.1, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert len(info["csv_sha256"]) == 64
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert self_total + metrics["trace.remainder_s"] == pytest.approx(metrics["trace.wall_s"])
        assert metrics["objectives.evaluate.calls"] == metrics["objectives.points_evaluated"]


def test_same_seed_gives_same_output():
    first = bench.run_benchmark("rastrigin-n80-d10", 11, 0.1, False, tiny=True)[1]["csv_sha256"]
    again = bench.run_benchmark("rastrigin-n80-d10", 11, 0.1, False, tiny=True)[1]["csv_sha256"]
    other = bench.run_benchmark("rastrigin-n80-d10", 12, 0.1, False, tiny=True)[1]["csv_sha256"]
    assert first == again != other


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rastrigin-n80-d10", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
