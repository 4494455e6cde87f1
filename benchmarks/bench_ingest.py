"""End-to-end ingestion benchmark: raw ECG in, quality-flagged spectra out.

Measures the full sensor path the ingestion layer (:mod:`repro.ingest`)
adds — ECG samples through streaming QRS detection, incremental
artifact preprocessing and the streaming hub, against the one-shot
batch path (:func:`~repro.ingest.ecg_record_to_rr` +
:meth:`Engine.analyze`) — under **both** PSA systems:

* ``conventional``     — the exact Welch-Lomb reference pipeline;
* ``quality_scalable`` — the paper's pruned system (mode ``set3``).

For each system the two paths process the *identical* rendered ECG
records, and the streamed result is verified **bit-identical** to the
batch result on every run — spectrogram, operation counts, per-window
time-domain metrics and quality flags — so the throughput numbers can
never drift away from the exactness contract they advertise.

Reported per system and path: wall time, ECG samples/sec, beats/sec,
windows/sec, plus the streaming:batch throughput ratio (the cost of
incrementality).  The document records the host (CPU count, Python,
NumPy and SciPy versions) the numbers were measured on.  Results land
in ``BENCH_ingest.json`` at the repository root.

Run with:  python benchmarks/bench_ingest.py [--subjects N]
           [--minutes M] [--frame SAMPLES] [--repeats R]

The test suite runs :func:`run_ingest_benchmark` on a tiny workload as
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

from repro.ecg import make_cohort, synthesize_ecg  # noqa: E402
from repro.engine import Engine, EngineConfig  # noqa: E402
from repro.ingest import ECGSource, ecg_frames, ecg_record_to_rr  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_ingest.json"
SAMPLING_RATE = 250.0

SYSTEMS = {
    "conventional": "exact",
    "quality_scalable": "set3",
}


def _make_records(n_subjects: int, duration_minutes: float):
    """Rendered ECG traces for the first *n_subjects* cohort patients."""
    records = {}
    for index, patient in enumerate(list(make_cohort())[:n_subjects]):
        rr = patient.rr_series(duration=duration_minutes * 60.0)
        t, ecg = synthesize_ecg(
            rr.times, sampling_rate=SAMPLING_RATE, seed=index
        )
        records[patient.patient_id] = (t, ecg)
    return records


def _results_identical(streamed, reference) -> bool:
    return (
        np.array_equal(streamed.welch.spectrogram, reference.welch.spectrogram)
        and np.array_equal(
            streamed.welch.window_times, reference.welch.window_times
        )
        and streamed.counts == reference.counts
        and streamed.window_metrics == reference.window_metrics
    )


def _run_batch(engine, records):
    """Whole-record path: detect + clean + analyze in one shot each."""
    started = time.perf_counter()
    results = {}
    for subject, (t, ecg) in records.items():
        rr = ecg_record_to_rr(t, ecg, sampling_rate=SAMPLING_RATE)
        results[subject] = (rr, engine.analyze(rr, count_ops=True))
    return time.perf_counter() - started, results


def _run_streaming(engine, records, frame_samples: int):
    """Frame-by-frame path: ECGSource events through the streaming hub."""
    started = time.perf_counter()
    hub = engine.open_hub(count_ops=True)
    for subject, (t, ecg) in records.items():
        source = ECGSource(
            subject,
            ecg_frames(t, ecg, frame_samples=frame_samples),
            sampling_rate=SAMPLING_RATE,
        )
        for event_subject, times, values, corrected in source:
            hub.feed(event_subject, times, values, corrected)
    results = hub.finalize_all()
    return time.perf_counter() - started, results


def run_ingest_benchmark(
    n_subjects: int = 4,
    duration_minutes: float = 10.0,
    frame_samples: int = 512,
    repeats: int = 3,
) -> dict:
    """The benchmark document (see module docstring)."""
    records = _make_records(n_subjects, duration_minutes)
    n_samples = sum(t.size for t, _ in records.values())

    systems = {}
    for system_name, mode in SYSTEMS.items():
        config = EngineConfig.for_mode(mode, jobs=1)
        batch_seconds = []
        stream_seconds = []
        identical = True
        n_beats = n_windows = 0
        with Engine(config) as engine:
            for _ in range(repeats):
                seconds, batch_results = _run_batch(engine, records)
                batch_seconds.append(seconds)
                seconds, stream_results = _run_streaming(
                    engine, records, frame_samples
                )
                stream_seconds.append(seconds)
                n_beats = sum(
                    rr.n_beats for rr, _ in batch_results.values()
                )
                n_windows = sum(
                    result.welch.n_windows
                    for result in stream_results.values()
                )
                identical = identical and all(
                    _results_identical(
                        stream_results[subject], batch_results[subject][1]
                    )
                    for subject in records
                )
        best_batch = min(batch_seconds)
        best_stream = min(stream_seconds)
        systems[system_name] = {
            "mode": mode,
            "bit_identical": identical,
            "n_beats": n_beats,
            "n_windows": n_windows,
            "batch": {
                "seconds": best_batch,
                "samples_per_sec": n_samples / best_batch,
                "beats_per_sec": n_beats / best_batch,
                "windows_per_sec": n_windows / best_batch,
            },
            "streaming": {
                "seconds": best_stream,
                "samples_per_sec": n_samples / best_stream,
                "beats_per_sec": n_beats / best_stream,
                "windows_per_sec": n_windows / best_stream,
            },
            "streaming_overhead_factor": best_stream / best_batch,
        }

    return {
        "benchmark": "ingest",
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "workload": {
            "n_subjects": n_subjects,
            "duration_minutes": duration_minutes,
            "sampling_rate_hz": SAMPLING_RATE,
            "frame_samples": frame_samples,
            "n_ecg_samples": n_samples,
            "repeats": repeats,
        },
        "systems": systems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subjects", type=int, default=4)
    parser.add_argument("--minutes", type=float, default=10.0)
    parser.add_argument("--frame", type=int, default=512)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT))
    args = parser.parse_args(argv)

    document = run_ingest_benchmark(
        n_subjects=args.subjects,
        duration_minutes=args.minutes,
        frame_samples=args.frame,
        repeats=args.repeats,
    )
    for name, entry in document["systems"].items():
        print(
            f"{name:>18}: batch "
            f"{entry['batch']['samples_per_sec'] / 1e3:8.0f} kilosamples/s, "
            f"streaming "
            f"{entry['streaming']['samples_per_sec'] / 1e3:8.0f} "
            f"kilosamples/s "
            f"({entry['streaming']['windows_per_sec']:.1f} windows/s), "
            f"identical={entry['bit_identical']}"
        )
        if not entry["bit_identical"]:
            print(f"ERROR: {name} streamed result diverged from batch")
            return 1
    pathlib.Path(args.output).write_text(json.dumps(document, indent=2))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
