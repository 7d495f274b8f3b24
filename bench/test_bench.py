"""The benchmark's own test, on tiny inputs:

    python3 -m pytest -q bench/test_bench.py

Every workload prints every end-to-end metric (untraced) and every per-layer
metric (traced) with the unit BENCHMARK.json gives it, all checks pass, the
exact counts repeat across seeds, and the benchmark refuses to run without the
library source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = ("_calls", "_butterflies", "_drawn", "_blocks")


def run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload, seed, trace):
    done = run(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    record, last = json.loads(lines[-2])["record"], json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, done.stderr
    assert record["failed_share"] == 0.0
    return record, last["metrics"]


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    record, metrics = result(workload, 1, 0)
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    assert set(record["machine"]) >= {"cores", "python", "numpy", "git_sha"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_seeds(workload):
    _, first = result(workload, 1, 1)
    _, second = result(workload, 2, 1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name in first if name.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
