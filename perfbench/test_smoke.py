"""Smoke test of the benchmark at a tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs untraced and traced on a handful of small ops.  The
test checks that every metric named in BENCHMARK.json is printed with its
unit, that every op's output check passes, that two seeds do the same
work, and that the benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
WORK_COUNTS = (
    "work.ops",
    "work.subprocesses",
    "measure.all_patterns.patterns",
    "algebra.tree_hull.vertices",
    "markovize.blocks",
    "markovize.pairs_tried",
)


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload: str, seed: int, trace: int) -> dict:
    proc = bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0, proc.stdout
    assert out["attempted"] >= 1
    return out


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(workload, 1, 0)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_work_counts(workload):
    first, second = result(workload, 1, 1), result(workload, 2, 1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units("per_layer")
    counts = [{k: out["metrics"][k]["value"] for k in WORK_COUNTS} for out in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["work.ops"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
