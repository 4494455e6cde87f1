"""Throughput benchmark: sequential vs batched vs per-provider execution.

Measures windows/second of the Welch-Lomb engine over a synthetic 24 h
Holter RR recording, for both PSA systems:

* the **conventional** system (split-radix FFT backend), and
* the **quality-scalable** system (pruned wavelet FFT, paper Mode 3),

each driven through the original per-window sequential loop
(``batched=False``, the equivalence oracle) and the batched execution
engine (``batched=True``, the default), then through the batched engine
once per available **FFT execution provider** (explicit oracle, numpy,
scipy when installed — see :mod:`repro.ffts.providers`).  For every
provider the document records windows/sec, the speedup over the
explicit-kernel batched path, the max relative spectrogram difference
against the explicit oracle (must be ``np.allclose``) and whether the
modelled operation counts match the oracle exactly (they must — counts
are modelled, never measured).  Each system also records steady-state
allocation churn per window (tracemalloc) with the workspace arena on
vs off, and the batched path's per-stage host time in µs per window
(``StageProfiler``: prepare, extirpolate, fft, lomb_combine, metrics).
Every timed call runs inside one warmed workspace arena per system, as
an engine's calls do, under the FFT provider the process resolves
(``numpy`` unless ``REPRO_FFT_PROVIDER`` pins another); the document's
``workload`` block records both.  Its ``host`` block records the CPU
count and the Python, NumPy and SciPy versions.  Results are written
to ``BENCH_throughput.json`` at the repository root.

Run with:  python benchmarks/bench_throughput.py [--hours H] [--repeats R]

The test suite invokes :func:`run_throughput_benchmark` with a small
workload as a smoke test, so this script cannot rot.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.config import PSAConfig  # noqa: E402
from repro.core.system import ConventionalPSA, QualityScalablePSA  # noqa: E402
from repro.ecg.rr_synthesis import TachogramSpec, generate_tachogram  # noqa: E402
from repro.ffts.providers import registry  # noqa: E402
from repro.ffts.pruning import PruningSpec  # noqa: E402
from repro.lomb.fast import BATCH_CHUNK_WINDOWS  # noqa: E402
from repro.perf import WorkspaceArena, execution  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_throughput.json"

#: The windows-per-sub-batch every run uses: the kernel's default chunk
#: size and the one ``perfbench`` pins, so that a
#: ``REPRO_BATCH_CHUNK_WINDOWS`` pin cannot make two runs of this
#: benchmark time different work.
CHUNK_WINDOWS = BATCH_CHUNK_WINDOWS

#: The kernel and metrics stages the per-stage table reports, in
#: pipeline order (``repro.perf.profiler`` span names).
PROFILED_STAGES = ("prepare", "extirpolate", "fft", "lomb_combine", "metrics")


def _time_analyze(welch, times, intervals, batched: bool, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one full Welch-Lomb analysis."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        welch.analyze_windows(times, intervals, batched=batched)
        best = min(best, time.perf_counter() - start)
    return best


def _sweep_providers(welch, times, intervals, n_windows, repeats: int) -> dict:
    """Time the batched path under every available provider.

    The explicit provider is the baseline (and the numerical oracle):
    every other provider's spectrogram must be ``np.allclose`` to it
    and its modelled operation counts must match exactly.
    """
    names = [
        name
        for name, available in registry.available_providers().items()
        if available
    ]
    names.sort(key=lambda name: name != "explicit")  # oracle runs first
    entries: dict[str, dict] = {}
    oracle = None
    for name in names:
        with execution(provider=name):
            checked = welch.analyze_windows(
                times, intervals, batched=True, count_ops=True
            )
            seconds = _time_analyze(
                welch, times, intervals, batched=True, repeats=repeats
            )
        if oracle is None:  # "explicit" is registered first
            oracle = checked
        max_rel_diff = float(
            np.max(
                np.abs(checked.spectrogram - oracle.spectrogram)
                / np.maximum(np.abs(oracle.spectrogram), 1e-30)
            )
        )
        entries[name] = {
            "batched_seconds": seconds,
            "windows_per_sec": n_windows / seconds,
            "max_rel_diff_vs_oracle": max_rel_diff,
            "allclose_vs_oracle": bool(
                np.allclose(
                    checked.spectrogram,
                    oracle.spectrogram,
                    rtol=1e-6,
                    atol=1e-12,
                )
            ),
            "opcounts_match_oracle": checked.counts == oracle.counts,
        }
    explicit_seconds = entries["explicit"]["batched_seconds"]
    for entry in entries.values():
        entry["speedup_vs_explicit"] = (
            explicit_seconds / entry["batched_seconds"]
        )
    best = max(entries, key=lambda name: entries[name]["windows_per_sec"])
    return {
        "per_provider": entries,
        "best_provider": best,
        "best_speedup_vs_explicit": entries[best]["speedup_vs_explicit"],
    }


def _steady_state_alloc(welch, times, intervals, n_windows) -> dict:
    """Allocation churn of one batched analysis, arena on vs off.

    One warmed, tracemalloc-traced ``analyze_windows`` pass per variant
    (the warm pass populates the arena's pools — steady state is the
    claim under test).  Alloc tracing skews wall time, so these numbers
    live beside, never inside, the timing entries.
    """
    import tracemalloc

    def churn(arena) -> int:
        with execution(arena=arena):
            welch.analyze_windows(times, intervals, batched=True)  # warm
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                welch.analyze_windows(times, intervals, batched=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return max(0, peak - before)

    with_arena = churn(WorkspaceArena())
    without = churn(None)
    return {
        "arena_alloc_bytes_per_window": with_arena / n_windows,
        "no_arena_alloc_bytes_per_window": without / n_windows,
        "alloc_reduction_factor": (
            without / with_arena if with_arena else None
        ),
    }


def _stage_profile(welch, times, intervals, n_windows, repeats: int) -> dict:
    """Best-of-``repeats`` host µs per window of each profiled stage."""
    from repro.perf.profiler import StageProfiler

    best = dict.fromkeys(PROFILED_STAGES, float("inf"))
    for _ in range(repeats):
        profiler = StageProfiler()
        with execution(profiler=profiler):
            welch.analyze_windows(times, intervals, batched=True)
        report = profiler.report()
        for stage in PROFILED_STAGES:
            us = report[stage]["seconds"] * 1e6 / n_windows
            best[stage] = min(best[stage], us)
    return best


def _host() -> dict:
    """CPU count and interpreter/library versions of the measuring host."""
    try:
        import scipy
    except ImportError:  # optional: only the scipy provider needs it
        scipy = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__ if scipy is not None else None,
    }


def run_throughput_benchmark(
    duration_hours: float = 24.0,
    repeats: int = 3,
    seed: int = 2014,
) -> dict:
    """Benchmark both PSA systems on a synthetic Holter recording.

    Returns the result document (also see :func:`main`, which writes it
    to ``BENCH_throughput.json``).
    """
    config = PSAConfig()
    rr = generate_tachogram(
        TachogramSpec(seed=seed), duration_hours * 3600.0
    )
    systems = {
        "conventional_split_radix": ConventionalPSA(config),
        "quality_scalable_wavelet_mode3": QualityScalablePSA(
            config, pruning=PruningSpec.paper_mode(3)
        ),
    }
    # Every system and provider below runs under one pinned chunk.
    with execution(chunk_windows=CHUNK_WINDOWS):
        provider = registry.resolve_provider_name()
        results: dict[str, dict] = {}
        n_windows = None
        for name, system in systems.items():
            welch = system.welch
            # One warmed arena per system, as each engine owns one: the
            # first sequential and batched passes fill its pools and the
            # plan caches before anything is timed.
            with execution(arena=WorkspaceArena()):
                reference = welch.analyze_windows(
                    rr.times, rr.intervals, batched=False
                )
                batched_result = welch.analyze_windows(
                    rr.times, rr.intervals, batched=True
                )
                n_windows = reference.n_windows
                max_rel_diff = float(
                    np.max(
                        np.abs(
                            batched_result.spectrogram - reference.spectrogram
                        )
                        / np.maximum(np.abs(reference.spectrogram), 1e-30)
                    )
                )
                seq_seconds = _time_analyze(
                    welch, rr.times, rr.intervals, False, repeats
                )
                batch_seconds = _time_analyze(
                    welch, rr.times, rr.intervals, True, repeats
                )
                results[name] = {
                    "sequential_seconds": seq_seconds,
                    "batched_seconds": batch_seconds,
                    "sequential_windows_per_sec": n_windows / seq_seconds,
                    "batched_windows_per_sec": n_windows / batch_seconds,
                    "speedup": seq_seconds / batch_seconds,
                    "max_rel_diff_spectrogram": max_rel_diff,
                    "providers": _sweep_providers(
                        welch, rr.times, rr.intervals, n_windows, repeats
                    ),
                    "steady_state_alloc": _steady_state_alloc(
                        welch, rr.times, rr.intervals, n_windows
                    ),
                    "stage_us_per_window": _stage_profile(
                        welch, rr.times, rr.intervals, n_windows, repeats
                    ),
                }
    return {
        "benchmark": "batched vs sequential windowed-PSA throughput",
        "host": _host(),
        "workload": {
            "duration_hours": duration_hours,
            "n_beats": int(rr.times.size),
            "n_windows": int(n_windows),
            "window_seconds": config.window_seconds,
            "overlap": config.overlap,
            "workspace_size": config.fft_size,
            "chunk_windows": CHUNK_WINDOWS,
            "chunk_source": "pinned",
            "provider": provider,
            "arena": True,
            "repeats": repeats,
            "seed": seed,
        },
        "systems": results,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--hours", type=float, default=24.0, help="recording length in hours"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repetitions (best-of)"
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help="where to write the JSON document",
    )
    args = parser.parse_args(argv)
    document = run_throughput_benchmark(
        duration_hours=args.hours, repeats=args.repeats
    )
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(document, indent=2))
    for name, entry in document["systems"].items():
        print(
            f"{name}: {entry['sequential_windows_per_sec']:.0f} -> "
            f"{entry['batched_windows_per_sec']:.0f} windows/s "
            f"({entry['speedup']:.1f}x)"
        )
        sweep = entry["providers"]
        print(
            f"  best provider: {sweep['best_provider']} "
            f"({sweep['best_speedup_vs_explicit']:.1f}x vs explicit batched)"
        )
        stages = entry["stage_us_per_window"]
        print(
            "  us/window: "
            + ", ".join(f"{stage} {stages[stage]:.1f}" for stage in stages)
        )


if __name__ == "__main__":
    main()
