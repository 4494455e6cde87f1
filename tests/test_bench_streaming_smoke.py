"""Smoke test: the streaming benchmark script must keep running.

Runs :func:`run_streaming_benchmark` on a tiny three-subject cohort and
checks the document structure the full run commits to
``BENCH_streaming.json`` — including the exactness guarantees both
replay paths carry (bit-identical spectrograms, equal operation
counts vs whole-recording analysis).
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
        "bench_streaming", BENCHMARKS / "bench_streaming.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_streaming", module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_streaming_benchmark_smoke(tmp_path):
    bench = _load_module()
    document = bench.run_streaming_benchmark(
        n_subjects=3,
        duration_minutes=8.0,
        burst_seconds=60.0,
        repeats=1,
        slo_target_ms=30.0,
    )
    host = document["host"]
    assert host["cpu_count"] >= 1
    assert {"python", "numpy", "scipy"} <= set(host)
    workload = document["workload"]
    assert workload["n_subjects"] == 3
    assert workload["n_windows_total"] >= 9
    assert workload["n_rounds"] >= 8
    paths = document["paths"]
    assert set(paths) == {"independent", "hub", "speedup_hub_vs_independent"}
    for name in ("independent", "hub"):
        entry = paths[name]
        assert entry["windows_per_sec"] > 0
        assert entry["live_windows"] > 0
        assert entry["per_window_latency"]["mean_ms"] > 0
        assert entry["per_window_latency"]["p95_ms"] > 0
        # Both replay paths must reproduce batch analysis bit-exactly.
        assert entry["max_rel_diff_spectrogram"] == 0.0
        assert entry["op_counts_equal"] is True
    assert paths["speedup_hub_vs_independent"] > 0
    steady = document["steady_state"]
    assert set(steady) == {
        "warmup_rounds_skipped",
        "arena",
        "no_arena",
        "alloc_reduction_factor",
    }
    for variant in ("arena", "no_arena"):
        entry = steady[variant]
        assert entry["windows"] > 0
        assert entry["alloc_bytes_per_window"] >= 0
        assert entry["flush_latency_p95_ms"] > 0
    # The arena must cut steady-state allocation churn (the committed
    # full-size run shows the headline factor; the tiny smoke cohort
    # just has to show a real reduction).
    assert steady["alloc_reduction_factor"] > 1.0
    # The SLO-defense leg: under the same deterministic overload the
    # controller must shed quality and pull the steady-state p95 below
    # the uncontrolled replay's.
    shedding = document["shedding"]
    # Its latencies are the fault harness's cost model, not host time.
    assert shedding["modelled"] is True
    off, on = shedding["controller_off"], shedding["controller_on"]
    assert off["windows"] == on["windows"] > 0
    assert off["shed_windows"] == 0
    assert on["steps_down"] >= 1
    assert on["shed_percent"] > 0
    assert on["steady_p95_ms"] < off["steady_p95_ms"]
    assert shedding["steady_p95_reduction_factor"] > 1.0
    # document must round-trip through JSON (what main() writes)
    out = tmp_path / "BENCH_streaming.json"
    out.write_text(json.dumps(document, indent=2))
    assert json.loads(out.read_text()) == document


@pytest.mark.slow
def test_streaming_benchmark_main_writes_json(tmp_path, capsys):
    bench = _load_module()
    out = tmp_path / "bench.json"
    bench.main(
        [
            "--subjects", "2",
            "--minutes", "6",
            "--burst-seconds", "90",
            "--repeats", "1",
            "--output", str(out),
        ]
    )
    document = json.loads(out.read_text())
    assert document["workload"]["n_subjects"] == 2
    assert "windows/s" in capsys.readouterr().out
