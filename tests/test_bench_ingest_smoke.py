"""Smoke test: the ingestion benchmark script must keep running.

Runs :func:`run_ingest_benchmark` on a tiny workload and checks the
document structure the full run commits to ``BENCH_ingest.json`` —
including the exactness guarantee both systems carry (the streamed
ECG replay bit-identical to batch analysis on every run).
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
        "bench_ingest", BENCHMARKS / "bench_ingest.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_ingest", module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_ingest_benchmark_smoke(tmp_path):
    bench = _load_module()
    document = bench.run_ingest_benchmark(
        n_subjects=2, duration_minutes=5.0, repeats=1
    )
    host = document["host"]
    assert host["cpu_count"] >= 1
    assert all(host[key] for key in ("python", "numpy", "scipy"))
    workload = document["workload"]
    assert workload["n_subjects"] == 2
    assert workload["n_ecg_samples"] > 0
    systems = document["systems"]
    assert set(systems) == {"conventional", "quality_scalable"}
    for entry in systems.values():
        # The throughput numbers are only publishable when the streamed
        # replay reproduced batch analysis bit for bit.
        assert entry["bit_identical"] is True
        assert entry["n_beats"] > 0
        assert entry["n_windows"] > 0
        for path in ("batch", "streaming"):
            assert entry[path]["seconds"] > 0
            assert entry[path]["samples_per_sec"] > 0
            assert entry[path]["windows_per_sec"] > 0
        assert entry["streaming_overhead_factor"] > 0
    # document must round-trip through JSON (what main() writes)
    out = tmp_path / "BENCH_ingest.json"
    out.write_text(json.dumps(document, indent=2))
    assert json.loads(out.read_text()) == document


@pytest.mark.slow
def test_ingest_benchmark_main_writes_json(tmp_path, capsys):
    bench = _load_module()
    out = tmp_path / "bench.json"
    assert bench.main(
        [
            "--subjects", "1",
            "--minutes", "5",
            "--repeats", "1",
            "--output", str(out),
        ]
    ) == 0
    document = json.loads(out.read_text())
    assert document["workload"]["n_subjects"] == 1
    assert "identical=True" in capsys.readouterr().out


def test_committed_bench_document_is_current():
    """The committed BENCH_ingest.json matches the script's schema."""
    committed = BENCHMARKS.parent / "BENCH_ingest.json"
    document = json.loads(committed.read_text())
    assert document["benchmark"] == "ingest"
    assert document["host"]["cpu_count"] >= 1
    for entry in document["systems"].values():
        assert entry["bit_identical"] is True
