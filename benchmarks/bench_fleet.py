"""Fleet benchmark: sequential vs batched vs sharded cohort execution.

Measures windows/second of the Welch-Lomb engine over a synthetic
multi-patient Holter cohort, for both PSA systems:

* the **conventional** system (split-radix FFT backend), and
* the **quality-scalable** system (pruned wavelet FFT, paper Mode 3),

each driven three ways:

* ``sequential`` — the original per-window loop (``batched=False``),
* ``batched``    — the single-process batch engine of PR 1,
* ``sharded``    — the fleet engine: the cohort's windows sharded over
  a pool of worker processes with shared-memory recordings
  (:class:`repro.fleet.FleetRunner`).

A fourth, ``distributed`` leg routes the same cohort over localhost
worker daemons (``python -m repro worker``) through the socket
transport, verifying bit-identity against the batched reference and
quantifying serialization/framing overhead per window.

The sharded spectrograms must be **bit-identical** to the batched ones
(``max_rel_diff_spectrogram == 0.0``) and the per-recording operation
counts equal; both are verified on every run.  Results — including the
host's CPU count, start method and tuned chunk size, which bound what
sharding can deliver, and the Python, NumPy and SciPy versions — are
written to ``BENCH_fleet.json`` at the repository root.

Run with:  python benchmarks/bench_fleet.py [--patients P] [--hours H]
           [--jobs J] [--repeats R]

The test suite invokes :func:`run_fleet_benchmark` with a tiny cohort
and two workers as a smoke test, so this script cannot rot.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.core.config import PSAConfig  # noqa: E402
from repro.ecg.rr_synthesis import TachogramSpec, generate_tachogram  # noqa: E402
from repro.engine.config import EngineConfig  # noqa: E402
from repro.ffts.pruning import PruningSpec  # noqa: E402
from repro.fleet.runner import FleetRunner  # noqa: E402
from repro.lomb.fast import get_batch_chunk_windows  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_fleet.json"


def _make_cohort(n_patients: int, duration_hours: float, seed: int):
    """Synthetic multi-patient cohort with per-patient parameter spread."""
    rng = np.random.default_rng(seed)
    recordings = []
    for k in range(n_patients):
        spec = TachogramSpec(
            mean_rr=float(rng.uniform(0.7, 1.0)),
            lf_frequency=float(rng.uniform(0.08, 0.12)),
            hf_frequency=float(rng.uniform(0.2, 0.3)),
            seed=seed + k,
        )
        recordings.append(generate_tachogram(spec, duration_hours * 3600.0))
    return recordings


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _spawn_daemons(n: int) -> list[tuple[subprocess.Popen, str]]:
    """Start ``n`` localhost worker daemons on ephemeral ports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    daemons = []
    try:
        for _ in range(n):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE,
                text=True,
                env=env,
            )
            banner = proc.stdout.readline()
            match = re.search(r"listening on (\S+)", banner)
            if match is None:
                proc.kill()
                raise RuntimeError(
                    f"worker daemon printed no address banner: {banner!r}"
                )
            daemons.append((proc, match.group(1)))
    except BaseException:
        _stop_daemons(daemons)
        raise
    return daemons


def _stop_daemons(daemons) -> None:
    for proc, _address in daemons:
        proc.terminate()
    for proc, _address in daemons:
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _bench_distributed(
    engine_config, addresses, recordings, batched, repeats: int
) -> dict:
    """Time the cohort over localhost worker daemons for one system.

    Verifies bit-identity against the in-process ``batched`` reference
    and quantifies wire overhead (serialization + framing) per window
    from the transport byte counters.
    """
    n_windows_total = sum(result.n_windows for result in batched)
    config = engine_config.replace(workers=tuple(addresses))
    with FleetRunner(config) as runner:
        report = runner.run_report(recordings, count_ops=True)
        max_rel_diff = max(
            float(
                np.max(
                    np.abs(remote.spectrogram - reference.spectrogram)
                    / np.maximum(np.abs(reference.spectrogram), 1e-30)
                )
            )
            for remote, reference in zip(report.results, batched)
        )
        counts_equal = all(
            remote.counts == reference.counts
            for remote, reference in zip(report.results, batched)
        )
        stats_before = runner.transport_stats()
        dist_seconds = _best_of(repeats, lambda: runner.run(recordings))
        stats_after = runner.transport_stats()
    sent = sum(s["bytes_sent"] for s in stats_after.values()) - sum(
        s["bytes_sent"] for s in stats_before.values()
    )
    received = sum(s["bytes_received"] for s in stats_after.values()) - sum(
        s["bytes_received"] for s in stats_before.values()
    )
    windows_moved = repeats * n_windows_total
    return {
        "distributed_seconds": dist_seconds,
        "distributed_windows_per_sec": n_windows_total / dist_seconds,
        "max_rel_diff_spectrogram": max_rel_diff,
        "op_counts_equal": counts_equal,
        "n_shards": report.n_shards,
        "n_remote_workers": report.n_remote_workers,
        "wire_bytes_sent_per_window": sent / windows_moved,
        "wire_bytes_received_per_window": received / windows_moved,
        "wire_bytes_per_window": (sent + received) / windows_moved,
    }


def _bench_system(welch, runner, recordings, repeats: int) -> dict:
    """Verify exactness, then time all three paths for one PSA system.

    The first (untimed) sharded run also forks the runner's persistent
    pool, so the timed runs measure the warm serving pattern.
    """
    batched = [
        welch.analyze(rr.times, rr.intervals, count_ops=True)
        for rr in recordings
    ]
    report = runner.run_report(recordings, count_ops=True)
    n_windows_total = sum(result.n_windows for result in batched)
    max_rel_diff = max(
        float(
            np.max(
                np.abs(sharded.spectrogram - reference.spectrogram)
                / np.maximum(np.abs(reference.spectrogram), 1e-30)
            )
        )
        for sharded, reference in zip(report.results, batched)
    )
    counts_equal = all(
        sharded.counts == reference.counts
        for sharded, reference in zip(report.results, batched)
    )

    seq_seconds = _best_of(
        repeats,
        lambda: [
            welch.analyze_windows(rr.times, rr.intervals, batched=False)
            for rr in recordings
        ],
    )
    batch_seconds = _best_of(
        repeats,
        lambda: [
            welch.analyze_windows(rr.times, rr.intervals, batched=True)
            for rr in recordings
        ],
    )
    shard_seconds = _best_of(repeats, lambda: runner.run(recordings))
    return {
        "sequential_seconds": seq_seconds,
        "batched_seconds": batch_seconds,
        "sharded_seconds": shard_seconds,
        "sequential_windows_per_sec": n_windows_total / seq_seconds,
        "batched_windows_per_sec": n_windows_total / batch_seconds,
        "sharded_windows_per_sec": n_windows_total / shard_seconds,
        "speedup_batched_vs_sequential": seq_seconds / batch_seconds,
        "speedup_sharded_vs_batched": batch_seconds / shard_seconds,
        "speedup_sharded_vs_sequential": seq_seconds / shard_seconds,
        "max_rel_diff_spectrogram": max_rel_diff,
        "op_counts_equal": counts_equal,
        "n_shards": report.n_shards,
        "_n_windows_total": n_windows_total,
        "_start_method": report.start_method or "in-process",
        "_batched": batched,
    }


def run_fleet_benchmark(
    n_patients: int = 8,
    duration_hours: float = 12.0,
    jobs: int = 4,
    repeats: int = 3,
    seed: int = 2014,
    workers: int = 2,
) -> dict:
    """Benchmark both PSA systems over a synthetic cohort, three ways.

    With ``workers > 0`` the document also gains a ``distributed``
    section: the same cohort routed over that many localhost worker
    daemons (``python -m repro worker``), exactness verified against
    the batched reference and wire overhead quantified per window.

    Returns the result document (also see :func:`main`, which writes it
    to ``BENCH_fleet.json``).
    """
    config = PSAConfig()
    recordings = _make_cohort(n_patients, duration_hours, seed)
    engine_configs = {
        "conventional_split_radix": EngineConfig(
            system="conventional", psa=config
        ),
        "quality_scalable_wavelet_mode3": EngineConfig(
            system="quality-scalable",
            pruning=PruningSpec.paper_mode(3),
            psa=config,
        ),
    }
    chunk_windows = get_batch_chunk_windows(config.fft_size)
    results: dict[str, dict] = {}
    distributed: dict[str, dict] = {}
    n_windows_total = None
    start_method = None
    daemons = _spawn_daemons(workers) if workers > 0 else []
    try:
        addresses = [address for _proc, address in daemons]
        for name, engine_config in engine_configs.items():
            with FleetRunner(engine_config.replace(jobs=jobs)) as runner:
                results[name] = _bench_system(
                    runner.welch, runner, recordings, repeats
                )
            n_windows_total = results[name].pop("_n_windows_total")
            start_method = results[name].pop("_start_method")
            batched = results[name].pop("_batched")
            if addresses:
                distributed[name] = _bench_distributed(
                    engine_config, addresses, recordings, batched, repeats
                )
    finally:
        _stop_daemons(daemons)
    document = {
        "benchmark": "fleet sharded vs batched vs sequential cohort execution",
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "jobs": jobs,
            "start_method": start_method,
            "chunk_windows": chunk_windows,
        },
        "workload": {
            "n_patients": n_patients,
            "duration_hours": duration_hours,
            "n_beats_total": int(sum(rr.times.size for rr in recordings)),
            "n_windows_total": int(n_windows_total),
            "window_seconds": config.window_seconds,
            "overlap": config.overlap,
            "workspace_size": config.fft_size,
            "repeats": repeats,
            "seed": seed,
        },
        "systems": results,
    }
    if distributed:
        document["distributed"] = {
            "n_workers": workers,
            "transport": "localhost worker daemons (length-prefixed "
                         "binary frames over TCP)",
            "local_jobs": 1,
            "systems": distributed,
        }
    return document


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--patients", type=int, default=8, help="cohort size (recordings)"
    )
    parser.add_argument(
        "--hours", type=float, default=12.0, help="recording length in hours"
    )
    parser.add_argument(
        "--jobs", type=int, default=4, help="worker processes for sharding"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repetitions (best-of)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="localhost worker daemons for the distributed section "
             "(0 disables it)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help="where to write the JSON document",
    )
    args = parser.parse_args(argv)
    document = run_fleet_benchmark(
        n_patients=args.patients,
        duration_hours=args.hours,
        jobs=args.jobs,
        repeats=args.repeats,
        workers=args.workers,
    )
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(document, indent=2))
    for name, entry in document["systems"].items():
        print(
            f"{name}: seq {entry['sequential_windows_per_sec']:.0f} | "
            f"batched {entry['batched_windows_per_sec']:.0f} | "
            f"sharded {entry['sharded_windows_per_sec']:.0f} windows/s "
            f"(sharded vs batched "
            f"{entry['speedup_sharded_vs_batched']:.2f}x on "
            f"{document['host']['cpu_count']} CPUs)"
        )
    for name, entry in document.get("distributed", {}).get(
        "systems", {}
    ).items():
        print(
            f"{name} [distributed]: "
            f"{entry['distributed_windows_per_sec']:.0f} windows/s over "
            f"{entry['n_remote_workers']} daemons, "
            f"{entry['wire_bytes_per_window']:.0f} wire bytes/window, "
            f"max rel diff {entry['max_rel_diff_spectrogram']:.1e}"
        )


if __name__ == "__main__":
    main()
