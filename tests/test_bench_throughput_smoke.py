"""Smoke test: the throughput benchmark script must keep running.

Runs :func:`run_throughput_benchmark` on a small workload and checks the
document structure the full 24 h run commits to ``BENCH_throughput.json``.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"


def _load_module():
    spec = importlib.util.spec_from_file_location(
        "bench_throughput", BENCHMARKS / "bench_throughput.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_throughput", module)
    spec.loader.exec_module(module)
    return module


def test_throughput_benchmark_smoke(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_FFT_PROVIDER", raising=False)
    bench = _load_module()
    document = bench.run_throughput_benchmark(duration_hours=0.2, repeats=1)
    assert document["workload"]["n_windows"] >= 3
    # One pinned chunk size, never a per-run tuning probe's choice.
    assert document["workload"]["chunk_windows"] == 256
    assert document["workload"]["chunk_source"] == "pinned"
    # Timed inside a warmed arena under the provider the process
    # resolves, as an engine runs.
    assert document["workload"]["arena"] is True
    assert document["workload"]["provider"] == "numpy"
    host = document["host"]
    assert host["cpu_count"] >= 1
    assert {"python", "numpy", "scipy"} <= set(host)
    systems = document["systems"]
    assert set(systems) == {
        "conventional_split_radix",
        "quality_scalable_wavelet_mode3",
    }
    for entry in systems.values():
        assert entry["sequential_windows_per_sec"] > 0
        assert entry["batched_windows_per_sec"] > 0
        assert entry["speedup"] > 0
        # the batched path must agree with the sequential oracle
        assert entry["max_rel_diff_spectrogram"] < 1e-6
        # the provider sweep: explicit is always swept and is its own
        # 1.0x baseline; every provider must be allclose to the oracle
        # with identical modelled op counts
        sweep = entry["providers"]
        per_provider = sweep["per_provider"]
        assert "explicit" in per_provider
        assert per_provider["explicit"]["speedup_vs_explicit"] == 1.0
        assert sweep["best_provider"] in per_provider
        assert sweep["best_speedup_vs_explicit"] >= 1.0
        for provider_entry in per_provider.values():
            assert provider_entry["allclose_vs_oracle"] is True
            assert provider_entry["opcounts_match_oracle"] is True
            assert provider_entry["windows_per_sec"] > 0
        alloc = entry["steady_state_alloc"]
        assert alloc["arena_alloc_bytes_per_window"] >= 0
        assert alloc["no_arena_alloc_bytes_per_window"] > 0
        # The arena must cut batched-analysis allocation churn.
        assert alloc["alloc_reduction_factor"] > 1.0
        stages = entry["stage_us_per_window"]
        assert list(stages) == [
            "prepare", "extirpolate", "fft", "lomb_combine", "metrics",
        ]
        assert all(0.0 < us < float("inf") for us in stages.values())
    # document must round-trip through JSON (what main() writes)
    out = tmp_path / "BENCH_throughput.json"
    out.write_text(json.dumps(document, indent=2))
    assert json.loads(out.read_text()) == document


def test_throughput_benchmark_main_writes_json(tmp_path, capsys):
    bench = _load_module()
    out = tmp_path / "bench.json"
    bench.main(["--hours", "0.2", "--repeats", "1", "--output", str(out)])
    document = json.loads(out.read_text())
    assert document["workload"]["duration_hours"] == 0.2
    assert "windows/s" in capsys.readouterr().out
