"""The benchmark's own tests: every workload's tiny mode, both views.

Each run goes through the real command line (``run.py --tiny``), so
these exercise input generation, the fresh-interpreter children, the
gateway load generator, the correctness gate and the trace.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int, root: pathlib.Path = HERE.parent):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def runs() -> dict:
    """Every workload's tiny run in both views, two at a time."""
    jobs = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(lambda job: _run(*job), jobs)))


def _result(done) -> tuple[list[str], dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


def _units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(runs, workload):
    lines, result = _result(runs[workload, 0])
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert _units(result) == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    failed_frac = [line.split() for line in lines if "failed_frac" in line]
    assert failed_frac and failed_frac[0][1:3] == ["0", "fraction"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_named_with_units(runs, workload):
    _, result = _result(runs[workload, 1])
    expected = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert _units(result) == expected
    assert result["metrics"]["trace.coverage"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("ward_stream", 0, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
