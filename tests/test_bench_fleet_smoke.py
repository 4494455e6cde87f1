"""Smoke test: the fleet benchmark script must keep running.

Runs :func:`run_fleet_benchmark` on a tiny two-patient cohort with two
workers and checks the document structure the full run commits to
``BENCH_fleet.json`` — including the engine's exactness guarantees
(bit-identical spectrograms, equal operation counts).
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"


def _load_module():
    spec = importlib.util.spec_from_file_location(
        "bench_fleet", BENCHMARKS / "bench_fleet.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_fleet", module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_fleet_benchmark_smoke(tmp_path):
    bench = _load_module()
    document = bench.run_fleet_benchmark(
        n_patients=2, duration_hours=0.2, jobs=2, repeats=1, workers=1
    )
    assert document["workload"]["n_windows_total"] >= 6
    host = document["host"]
    assert host["cpu_count"] >= 1
    assert host["jobs"] == 2
    for key in ("python", "numpy", "scipy"):
        assert isinstance(host[key], str) and host[key]
    systems = document["systems"]
    assert set(systems) == {
        "conventional_split_radix",
        "quality_scalable_wavelet_mode3",
    }
    for entry in systems.values():
        assert entry["sequential_windows_per_sec"] > 0
        assert entry["batched_windows_per_sec"] > 0
        assert entry["sharded_windows_per_sec"] > 0
        # the sharded engine must reproduce the batched path bit-exactly
        assert entry["max_rel_diff_spectrogram"] == 0.0
        assert entry["op_counts_equal"] is True
        assert entry["n_shards"] >= 1
    distributed = document["distributed"]
    assert distributed["n_workers"] == 1
    assert set(distributed["systems"]) == set(systems)
    for entry in distributed["systems"].values():
        # localhost daemons must reproduce the batched path bit-exactly
        assert entry["max_rel_diff_spectrogram"] == 0.0
        assert entry["op_counts_equal"] is True
        assert entry["n_remote_workers"] == 1
        assert entry["wire_bytes_per_window"] > 0
    # document must round-trip through JSON (what main() writes)
    out = tmp_path / "BENCH_fleet.json"
    out.write_text(json.dumps(document, indent=2))
    assert json.loads(out.read_text()) == document


@pytest.mark.slow
def test_fleet_benchmark_main_writes_json(tmp_path, capsys):
    bench = _load_module()
    out = tmp_path / "bench.json"
    bench.main(
        [
            "--patients", "2",
            "--hours", "0.2",
            "--jobs", "2",
            "--repeats", "1",
            "--workers", "0",
            "--output", str(out),
        ]
    )
    document = json.loads(out.read_text())
    assert document["workload"]["n_patients"] == 2
    assert "distributed" not in document
    assert "windows/s" in capsys.readouterr().out
