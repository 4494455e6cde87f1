"""Streaming-cohort benchmark: multiplexed hub vs independent sessions.

Simulates a ward of N subjects trickling beats concurrently — the
streaming-cohort serving pattern — and measures two ways of analysing
the exact same event sequence:

* ``independent`` — N plain :class:`StreamingSession`\\ s
  (``Engine.open_stream``), each analysing the windows its own feeds
  complete in its own (tiny) batches;
* ``hub``         — one :class:`StreamHub` (``Engine.open_hub``)
  multiplexing all N sessions, analysing the windows each feed *round*
  completes **across subjects** in one shared dense batch.

Beats are replayed in round-robin uplink rounds (``burst_seconds`` of
each subject's recording per round), so each round completes roughly
one window per subject — the hub turns N single-window calls into one
N-row batch.  Both paths are verified **bit-identical** (spectrogram
and executed op counts) to whole-recording ``Engine.analyze`` for every
subject on every run.

Reported per path: total ingest+analysis wall time, aggregate
windows/sec, and per-window emission latency (time inside the feed or
flush call that produced the window) — mean and p95.  A separate
``steady_state`` section replays the hub with the workspace arena on
vs off and reports per-window allocation churn (tracemalloc) and p95
flush latency for each — the zero-allocation-steady-state claim in
numbers.  A ``shedding`` section (``--slo``) replays the hub under a
deterministic synthetic overload with the SLO controller off vs on and
reports the steady-state p95, the fraction of windows analysed at
degraded quality, and the controller's step counts — the SLO-defense
claim in numbers.  Its latencies come from
:class:`~repro.testing.FlushLatencyFault`'s cost model, not host time,
so the section is labelled ``"modelled": true``.  Results land in
``BENCH_streaming.json`` at the repository root, with the host's CPU
count and Python, NumPy and SciPy versions.

Run with:  python benchmarks/bench_streaming.py [--subjects N]
           [--minutes M] [--burst-seconds S] [--jobs J] [--repeats R]

The test suite runs :func:`run_streaming_benchmark` on a tiny cohort as
a smoke test, so this script cannot rot.
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
import scipy  # noqa: E402

from repro.ecg.rr_synthesis import TachogramSpec, generate_tachogram  # noqa: E402
from repro.engine import Engine, EngineConfig  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_streaming.json"


def _make_cohort(n_subjects: int, duration_minutes: float, seed: int):
    """Synthetic monitored cohort with per-subject parameter spread."""
    rng = np.random.default_rng(seed)
    recordings = {}
    for k in range(n_subjects):
        spec = TachogramSpec(
            mean_rr=float(rng.uniform(0.7, 1.0)),
            lf_frequency=float(rng.uniform(0.08, 0.12)),
            hf_frequency=float(rng.uniform(0.2, 0.3)),
            seed=seed + k,
        )
        recordings[f"subject-{k:02d}"] = generate_tachogram(
            spec, duration_minutes * 60.0
        )
    return recordings


def _rounds(recordings, burst_seconds: float):
    """Round-robin uplink rounds: one burst per subject per round.

    Returns a list of rounds; each round is a list of
    ``(subject, lo, hi)`` beat-index bursts covering ``burst_seconds``
    of that subject's recording — the arrival pattern of a ward of
    wearables uplinking on a shared cadence.
    """
    cursors = {subject: 0 for subject in recordings}
    edges = {subject: burst_seconds for subject in recordings}
    rounds = []
    while True:
        current = []
        for subject, rr in recordings.items():
            lo = cursors[subject]
            if lo >= rr.times.size:
                continue
            hi = int(
                np.searchsorted(rr.times, edges[subject], side="left")
            )
            hi = max(lo + 1, min(hi, rr.times.size))
            current.append((subject, lo, hi))
            cursors[subject] = hi
            edges[subject] += burst_seconds
        if not current:
            return rounds
        rounds.append(current)


def _latency_stats(latencies: list[float]) -> dict:
    if not latencies:
        return {"mean_ms": None, "p95_ms": None}
    arr = np.asarray(latencies)
    return {
        "mean_ms": float(arr.mean() * 1e3),
        "p95_ms": float(np.percentile(arr, 95.0) * 1e3),
    }


def _run_independent(engine, recordings, rounds, count_ops=False):
    """Replay through N plain sessions.

    Returns ``(results, total_seconds, live_windows, latencies)``.
    """
    sessions = {
        subject: engine.open_stream(count_ops=count_ops)
        for subject in recordings
    }
    latencies: list[float] = []
    total = 0.0
    n_live = 0
    for current in rounds:
        for subject, lo, hi in current:
            rr = recordings[subject]
            start = time.perf_counter()
            emitted = sessions[subject].feed(
                rr.times[lo:hi], rr.intervals[lo:hi]
            )
            elapsed = time.perf_counter() - start
            total += elapsed
            if emitted:
                latencies.extend([elapsed / len(emitted)] * len(emitted))
                n_live += len(emitted)
    start = time.perf_counter()
    results = {
        subject: session.finalize()
        for subject, session in sessions.items()
    }
    total += time.perf_counter() - start
    return results, total, n_live, latencies


def _run_hub(engine, recordings, rounds, count_ops=False):
    """Replay through one multiplexed hub.

    Returns ``(results, total_seconds, live_windows, latencies)``.
    """
    hub = engine.open_hub(count_ops=count_ops)
    for subject in recordings:
        hub.open(subject)
    latencies: list[float] = []
    total = 0.0
    n_live = 0
    for current in rounds:
        start = time.perf_counter()
        for subject, lo, hi in current:
            rr = recordings[subject]
            hub.feed(subject, rr.times[lo:hi], rr.intervals[lo:hi])
        emitted = hub.flush()
        elapsed = time.perf_counter() - start
        total += elapsed
        count = sum(len(emissions) for emissions in emitted.values())
        if count:
            latencies.extend([elapsed / count] * count)
            n_live += count
    start = time.perf_counter()
    results = hub.finalize_all()
    total += time.perf_counter() - start
    return results, total, n_live, latencies


#: Hub-replay rounds skipped before steady-state metrics start: the
#: first flushes populate the arena pools (and the allocator's own
#: free lists), which is exactly the transient the arena exists to
#: amortise away.
STEADY_STATE_WARMUP_ROUNDS = 3


def _replay_hub_once(engine, recordings, rounds, trace_alloc: bool):
    """One hub replay; per-round flush latencies (and allocation churn).

    With ``trace_alloc`` the per-round peak-over-baseline tracemalloc
    delta is recorded around each flush (timing numbers from a traced
    replay are *not* comparable to untraced ones — callers run separate
    passes for latency and allocations).
    """
    import tracemalloc

    hub = engine.open_hub()
    for subject in recordings:
        hub.open(subject)
    flush_seconds: list[float] = []
    churn_bytes: list[int] = []
    round_windows: list[int] = []
    if trace_alloc:
        tracemalloc.start()
    try:
        for current in rounds:
            for subject, lo, hi in current:
                rr = recordings[subject]
                hub.feed(subject, rr.times[lo:hi], rr.intervals[lo:hi])
            if trace_alloc:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter()
            emitted = hub.flush()
            flush_seconds.append(time.perf_counter() - start)
            if trace_alloc:
                peak = tracemalloc.get_traced_memory()[1]
                churn_bytes.append(max(0, peak - before))
            round_windows.append(
                sum(len(emissions) for emissions in emitted.values())
            )
        hub.finalize_all()
    finally:
        if trace_alloc:
            tracemalloc.stop()
        hub.close()
    return flush_seconds, churn_bytes, round_windows


def _measure_steady_state(config, recordings, rounds) -> dict:
    """Steady-state per-window allocation churn and flush latency.

    Two separate replays through one engine: an untraced pass for flush
    latency, a tracemalloc pass for allocation churn — tracing skews
    timing, so the two must never share a pass.  The first
    :data:`STEADY_STATE_WARMUP_ROUNDS` rounds are excluded from both.
    """
    with Engine(config) as engine:
        flush_seconds, _, _ = _replay_hub_once(
            engine, recordings, rounds, trace_alloc=False
        )
        _, churn_bytes, round_windows = _replay_hub_once(
            engine, recordings, rounds, trace_alloc=True
        )
    skip = min(STEADY_STATE_WARMUP_ROUNDS, max(0, len(rounds) - 1))
    steady_windows = sum(round_windows[skip:])
    steady_churn = sum(churn_bytes[skip:])
    steady_latencies = _latency_stats(flush_seconds[skip:])
    return {
        "alloc_bytes_per_window": (
            steady_churn / steady_windows if steady_windows else None
        ),
        "alloc_bytes_total": int(steady_churn),
        "windows": int(steady_windows),
        "flush_latency_mean_ms": steady_latencies["mean_ms"],
        "flush_latency_p95_ms": steady_latencies["p95_ms"],
    }


#: Synthetic overload for the shedding leg: every flush "costs"
#: ``SHED_COST_MS`` per full-quality window times ``SHED_LOAD`` (a
#: saturated node), discounted ``SHED_DISCOUNT``-fold per degradation
#: level.  Injected through :class:`repro.testing.FlushLatencyFault`
#: under a :class:`FaultClock`, so both legs observe *exactly* the cost
#: model and nothing else — the comparison is deterministic.
SHED_COST_MS = 2.0
SHED_DISCOUNT = 0.4
SHED_LOAD = 6.0


def _replay_hub_overloaded(config, recordings, rounds):
    """One hub replay under the synthetic overload; per-flush stats.

    Returns ``(flush_cost_seconds, level_histograms)`` — the observed
    (injected) cost of every flush and each flush's
    ``{level: windows}`` histogram.
    """
    from repro.testing import FaultClock, FlushLatencyFault

    with Engine(config) as engine:
        hub = engine.open_hub()
        for subject in recordings:
            hub.open(subject)
        clock = FaultClock().install(hub)
        fault = FlushLatencyFault(
            per_window_ms=SHED_COST_MS,
            discount=SHED_DISCOUNT,
            load=(SHED_LOAD,),
        ).install(hub)
        histograms = []
        try:
            for current in rounds:
                for subject, lo, hi in current:
                    rr = recordings[subject]
                    hub.feed(subject, rr.times[lo:hi], rr.intervals[lo:hi])
                hub.flush()
                histograms.append(dict(hub.last_flush_levels))
            stats = hub.controller_stats() if config.slo else None
        finally:
            clock.uninstall()
            hub.close()
    return list(fault.history), histograms, stats


def _shed_leg_stats(costs, histograms) -> dict:
    """Summarise one shedding leg; steady-state = second half of flushes."""
    windows = sum(sum(h.values()) for h in histograms)
    shed = sum(
        count
        for h in histograms
        for level, count in h.items()
        if level > 0
    )
    steady = costs[len(costs) // 2 :]
    return {
        "flushes": len(costs),
        "windows": int(windows),
        "shed_windows": int(shed),
        "shed_percent": 100.0 * shed / windows if windows else None,
        "max_backlog_windows": (
            max(sum(h.values()) for h in histograms) if histograms else 0
        ),
        "p95_ms": _latency_stats(costs)["p95_ms"],
        "steady_p95_ms": _latency_stats(steady)["p95_ms"],
    }


def _measure_shedding(jobs, recordings, rounds, target_ms: float) -> dict:
    """The SLO-defense experiment: controller off vs on, same overload.

    Both legs replay the identical round sequence under the same
    deterministic saturated-node cost model; the only difference is the
    :class:`SLOSpec` armed on the second leg.  A defended SLO shows up
    as the ``controller_on`` steady-state p95 falling back toward (or
    under) the target while ``controller_off`` stays pinned at the full
    overload cost.
    """
    from repro.engine import SLOSpec

    slo = SLOSpec(
        target_p95_ms=target_ms,
        window=4,
        step_down_after=2,
        recover_after=4,
    )
    off_costs, off_hists, _ = _replay_hub_overloaded(
        EngineConfig(system="quality-scalable", jobs=jobs),
        recordings,
        rounds,
    )
    on_costs, on_hists, stats = _replay_hub_overloaded(
        EngineConfig(system="quality-scalable", jobs=jobs, slo=slo),
        recordings,
        rounds,
    )
    off = _shed_leg_stats(off_costs, off_hists)
    on = _shed_leg_stats(on_costs, on_hists)
    on.update(
        steps_down=stats["steps_down"],
        steps_up=stats["steps_up"],
        windows_by_level={
            str(level): count
            for level, count in stats["windows_by_level"].items()
        },
    )
    off_p95 = off["steady_p95_ms"]
    on_p95 = on["steady_p95_ms"]
    return {
        # Flush latencies here are FlushLatencyFault's cost model, not
        # host time.
        "modelled": True,
        "slo": slo.to_dict(),
        "overload": {
            "cost_ms_per_full_window": SHED_COST_MS,
            "level_discount": SHED_DISCOUNT,
            "load_factor": SHED_LOAD,
        },
        "controller_off": off,
        "controller_on": on,
        "steady_p95_reduction_factor": (
            off_p95 / on_p95 if off_p95 and on_p95 else None
        ),
    }


def run_streaming_benchmark(
    n_subjects: int = 8,
    duration_minutes: float = 60.0,
    burst_seconds: float = 60.0,
    jobs: int = 1,
    repeats: int = 3,
    seed: int = 2014,
    slo_target_ms: float | None = None,
) -> dict:
    """Benchmark hub-multiplexed vs independent streaming sessions.

    Returns the result document (see :func:`main`, which writes it to
    ``BENCH_streaming.json``).
    """
    recordings = _make_cohort(n_subjects, duration_minutes, seed)
    rounds = _rounds(recordings, burst_seconds)
    config = EngineConfig(jobs=jobs)
    document_paths: dict[str, dict] = {}
    with Engine(config) as engine:
        # Exactness first: both replay paths must finalize bit-identical
        # to whole-recording analysis, op counts included.
        reference = {
            subject: engine.analyze(rr, count_ops=True)
            for subject, rr in recordings.items()
        }
        exact = {}
        for name, runner in (
            ("independent", _run_independent),
            ("hub", _run_hub),
        ):
            checked, _, _, _ = runner(
                engine, recordings, rounds, count_ops=True
            )
            max_rel_diff = 0.0
            counts_equal = True
            for subject, result in checked.items():
                ref = reference[subject]
                diff = float(
                    np.max(
                        np.abs(
                            result.welch.spectrogram
                            - ref.welch.spectrogram
                        )
                        / np.maximum(
                            np.abs(ref.welch.spectrogram), 1e-30
                        )
                    )
                )
                max_rel_diff = max(max_rel_diff, diff)
                counts_equal = counts_equal and (
                    result.counts == ref.counts
                )
            exact[name] = {
                "max_rel_diff_spectrogram": max_rel_diff,
                "op_counts_equal": counts_equal,
            }

        n_windows_total = sum(
            ref.welch.n_windows for ref in reference.values()
        )
        for name, runner in (
            ("independent", _run_independent),
            ("hub", _run_hub),
        ):
            best_total = float("inf")
            best_latencies: list[float] = []
            n_live = 0
            for _ in range(repeats):
                _, total, n_live, latencies = runner(
                    engine, recordings, rounds
                )
                if total < best_total:
                    best_total = total
                    best_latencies = latencies
            document_paths[name] = {
                "total_seconds": best_total,
                "windows_per_sec": n_windows_total / best_total,
                "live_windows": n_live,
                "per_window_latency": _latency_stats(best_latencies),
                **exact[name],
            }
    document_paths["speedup_hub_vs_independent"] = (
        document_paths["independent"]["total_seconds"]
        / document_paths["hub"]["total_seconds"]
    )
    steady_arena = _measure_steady_state(
        EngineConfig(jobs=jobs, arena=True), recordings, rounds
    )
    steady_plain = _measure_steady_state(
        EngineConfig(jobs=jobs, arena=False), recordings, rounds
    )
    per_window_on = steady_arena["alloc_bytes_per_window"]
    per_window_off = steady_plain["alloc_bytes_per_window"]
    steady_state = {
        "warmup_rounds_skipped": STEADY_STATE_WARMUP_ROUNDS,
        "arena": steady_arena,
        "no_arena": steady_plain,
        "alloc_reduction_factor": (
            per_window_off / per_window_on
            if per_window_on and per_window_off
            else None
        ),
    }
    shedding = (
        _measure_shedding(jobs, recordings, rounds, slo_target_ms)
        if slo_target_ms is not None
        else None
    )
    document = {
        "benchmark": (
            "streaming cohort: multiplexed hub vs independent sessions"
        ),
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "jobs": jobs,
        },
        "workload": {
            "n_subjects": n_subjects,
            "duration_minutes": duration_minutes,
            "burst_seconds": burst_seconds,
            "n_rounds": len(rounds),
            "n_beats_total": int(
                sum(rr.times.size for rr in recordings.values())
            ),
            "n_windows_total": int(n_windows_total),
            "repeats": repeats,
            "seed": seed,
        },
        "paths": document_paths,
        "steady_state": steady_state,
    }
    if shedding is not None:
        document["shedding"] = shedding
    return document


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--subjects", type=int, default=8, help="cohort size (streams)"
    )
    parser.add_argument(
        "--minutes",
        type=float,
        default=60.0,
        help="recording length per subject",
    )
    parser.add_argument(
        "--burst-seconds",
        type=float,
        default=60.0,
        help="seconds of recording each subject uplinks per round",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the hub's shared batches",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repetitions (best-of)"
    )
    parser.add_argument(
        "--slo",
        type=float,
        default=30.0,
        metavar="TARGET_MS",
        help="target p95 for the SLO-defense shedding leg "
        "(controller on vs off under a deterministic synthetic "
        "overload; 0 skips the leg)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help="where to write the JSON document",
    )
    args = parser.parse_args(argv)
    document = run_streaming_benchmark(
        n_subjects=args.subjects,
        duration_minutes=args.minutes,
        burst_seconds=args.burst_seconds,
        jobs=args.jobs,
        repeats=args.repeats,
        slo_target_ms=args.slo if args.slo > 0 else None,
    )
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(document, indent=2))
    paths = document["paths"]
    print(
        f"\nindependent {paths['independent']['windows_per_sec']:.0f} | "
        f"hub {paths['hub']['windows_per_sec']:.0f} windows/s "
        f"(hub vs independent "
        f"{paths['speedup_hub_vs_independent']:.2f}x, "
        f"{document['workload']['n_subjects']} subjects)"
    )
    steady = document["steady_state"]
    factor = steady["alloc_reduction_factor"]
    if factor:
        print(
            f"steady-state alloc/window: "
            f"{steady['arena']['alloc_bytes_per_window']:.0f} B with arena "
            f"vs {steady['no_arena']['alloc_bytes_per_window']:.0f} B "
            f"without ({factor:.1f}x fewer); flush p95 "
            f"{steady['arena']['flush_latency_p95_ms']:.2f} ms vs "
            f"{steady['no_arena']['flush_latency_p95_ms']:.2f} ms"
        )
    shedding = document.get("shedding")
    if shedding:
        on = shedding["controller_on"]
        off = shedding["controller_off"]
        print(
            f"SLO defense, modelled latencies (target "
            f"{shedding['slo']['target_p95_ms']:.0f} ms): steady p95 "
            f"{on['steady_p95_ms']:.1f} ms with controller vs "
            f"{off['steady_p95_ms']:.1f} ms without "
            f"({shedding['steady_p95_reduction_factor']:.1f}x lower, "
            f"{on['shed_percent']:.0f}% of windows degraded, "
            f"{on['steps_down']} step-downs)"
        )


if __name__ == "__main__":
    main()
