"""Smoke test of the benchmark: every workload, smallest size, one pass.

Run from the repository root with ``python3 -m pytest bench/tests``.  It is
kept out of the tier-1 suite (pyproject's testpaths), which it would slow.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "bench" / "layers.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = json.loads(lines[-2])["record"]
    for key in ("commit", "python", "nproc", "seed", "output_sha256", "fail_ratio"):
        assert key in record
    if trace:
        assert "trace_overhead_ms" in record


def test_interaction_map_covers_every_layer_metric():
    mapped = [m for row in LAYERS["rows"] for m in row["metrics"]]
    assert mapped == BENCH["per_layer"]
    assert set(LAYERS["expect_calls"]) == set(WORKLOADS)
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for row in LAYERS["rows"]:
        for move in row["moves"]:
            assert move["end_to_end"] in end_to_end
            assert set(move["on"]) <= set(WORKLOADS)
        assert set(row["flat_on"]) <= set(WORKLOADS)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
