"""The benchmark's in-process ops succeed on the program: one checked cycle
of the full-size ``trajectory`` and ``sweep`` workloads, run and judged by
the benchmark's own ``bench/workloads.py`` as ``bench/run.py`` runs them.
An op that raises a typed error or fails its reference check counts as a
failed op in the benchmark, so it fails here first."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

from lindgain.errors import LindgainError  # noqa: E402


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("workload", ["trajectory", "sweep"])
def test_benchmark_ops_do_not_fail(tmp_path, workload, seed):
    failed = []
    ops = workloads.make_ops(workload, seed)
    for i, op in enumerate(ops):
        out = tmp_path / f"op{i}"
        out.mkdir()
        try:
            result = workloads.run_inprocess(op, out)
        except LindgainError as exc:
            failed.append((i, op["kind"], f"{type(exc).__name__}: {exc}"))
            continue
        verdict = workloads.check_inprocess(op, out, result)
        if verdict.failed:
            failed.append((i, op["kind"], verdict.errors + verdict.wrong))
    assert ops and not failed
