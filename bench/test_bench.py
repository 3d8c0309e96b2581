"""Smoke test of the benchmark at tiny size.

    python3 -m pytest bench/test_bench.py

Checks that the op list is a function of the seed, that every metric named in
BENCHMARK.json is emitted with its unit in both modes, and that the benchmark
refuses to report when the program is missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_op_list(workload, tiny):
    ops = workloads.make_ops(workload, 11, tiny=tiny)
    assert ops == workloads.make_ops(workload, 11, tiny=tiny)
    assert ops != workloads.make_ops(workload, 12, tiny=tiny)
    json.dumps(ops)  # ops are plain data


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_no_result_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "trajectory", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
