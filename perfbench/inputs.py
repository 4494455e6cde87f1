"""Workload inputs and their reference outputs, made from the seed.

Runs in the orchestrating process (``run.py``), never in a process
under test.  Every input is derived from the workload seed; every
reference comes from the plain batch path (``Engine.analyze``,
``ecg_record_to_rr``) under the same pinned execution settings the
workloads use, so a correct run matches it bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from common import (
    BURST_SECONDS, ECTOPIC_RATE, FRAME_SAMPLES, LEVELS, SAMPLING_RATE,
    TENANT, TOKEN, engine_config, payload_digest, result_digest, sizes,
    window_digest,
)
from repro import Engine, RRSeries, make_cohort
from repro.ecg import synthesize_ecg
from repro.ecg.rr_synthesis import generate_tachogram
from repro.hrv.preprocessing import filter_artifacts
from repro.ingest import ecg_record_to_rr
from repro.platform.node import SensorNodeModel
from repro.service.wire import encode_frame, result_to_dict


def _patients(seed: int):
    """The default cohort's patients, interleaved by condition, reseeded.

    Patient physiology (mean RR, oscillation amplitudes) is fixed so
    every seed gives inputs of the same shape; the seed draws the
    phases, beat jitter and ectopic positions.
    """
    cohort = list(make_cohort())
    rsa, healthy = cohort[:16], cohort[16:]
    order = [p for pair in zip(rsa, healthy) for p in pair] + rsa[8:]
    return [
        replace(p.spec, seed=abs(seed) * 1000 + i, ectopic_rate=ECTOPIC_RATE)
        for i, p in enumerate(order)
    ]


def _cleaned(spec, duration: float) -> RRSeries:
    """A tachogram with ~1 % ectopic beats, cleaned by filter_artifacts."""
    return filter_artifacts(generate_tachogram(spec, duration)).series


def _as_arrays(rr: RRSeries):
    return rr.times, rr.intervals, rr.corrected


def _head(rr: RRSeries, seconds: float) -> RRSeries:
    keep = rr.times < rr.times[0] + seconds
    return RRSeries(
        times=rr.times[keep], intervals=rr.intervals[keep],
        corrected=rr.corrected[keep],
    )


def _bursts(rr: RRSeries, n_bursts: int):
    """Split a recording into consecutive 60 s uplink bursts."""
    edges = rr.times[0] + BURST_SECONDS * np.arange(n_bursts + 1)
    cuts = np.searchsorted(rr.times, edges, side="left")
    return [
        (rr.times[lo:hi], rr.intervals[lo:hi], rr.corrected[lo:hi])
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


def expected(result, wire: bool = False) -> dict:
    """Reference fingerprints of one recording's batch result.

    ``wire`` fingerprints the result in its wire form (what a gateway
    client receives) instead of as in-process arrays.
    """
    welch = result.welch
    return {
        "windows": [
            window_digest(
                spectrum.power.tobytes(), float(center), metrics.to_dict()
            )
            for spectrum, center, metrics in zip(
                welch.window_spectra, welch.window_times,
                welch.window_metrics,
            )
        ],
        "result": (payload_digest(result_to_dict(result)) if wire
                   else result_digest(result)),
    }


def build(workload: str, seed: int, seconds: float, tiny: bool):
    """``(inputs, warmup, reference)`` of one workload run.

    ``reference`` maps the key each output carries to its
    :func:`expected` fingerprints.
    """
    geometry = sizes(workload, tiny)
    patients = _patients(seed)
    return _BUILDERS[workload](geometry, patients, seconds)


def _holter(geometry, patients, seconds):
    duration = geometry["hours"] * 3600.0
    cohort = [
        _cleaned(patients[i], duration)
        for i in range(geometry["recordings"])
    ]
    reference = {}
    for mode in geometry["modes"]:
        engine = Engine(engine_config(mode))
        for i, rr in enumerate(cohort):
            reference[mode, i] = expected(engine.analyze(rr))
    warmup = [_as_arrays(_head(rr, 1800.0)) for rr in cohort]
    inputs = {"cohort": [_as_arrays(rr) for rr in cohort]}
    return inputs, {"cohort": warmup}, reference


def _ward(geometry, patients, seconds):
    per_level, groups = geometry["per_level"], geometry["groups"]
    n_ticks = max(groups, int(round(seconds / geometry["tick"])))
    n_ticks -= n_ticks % groups
    n_bursts = n_ticks // groups
    recordings = [
        _cleaned(patients[r], n_bursts * BURST_SECONDS + 30.0)
        for r in range(per_level)
    ]
    bursts = [_bursts(rr, n_bursts) for rr in recordings]
    reference = {}
    for level in LEVELS:
        engine = Engine(engine_config(level))
        for r, rr in enumerate(recordings):
            reference[level, r] = expected(
                engine.analyze(_head(rr, n_bursts * BURST_SECONDS)))
    subjects = [
        {
            "name": f"w{level_index}-{r:02d}",
            "level": level_index,
            "recording": r,
            "group": (level_index * per_level + r) % groups,
        }
        for level_index in range(len(LEVELS))
        for r in range(per_level)
    ]
    inputs = {
        "bursts": bursts, "subjects": subjects,
        "tick": geometry["tick"], "n_ticks": n_ticks, "groups": groups,
    }
    warmup = {"bursts": [b[:4] for b in bursts]}
    return inputs, warmup, reference


def _gateway(geometry, patients, seconds):
    n_bursts, period = geometry["bursts"], geometry["period"]
    per_subject = (n_bursts + geometry["gap"]) * period
    subjects_per_slot = max(1, int(seconds / per_subject))
    engine = Engine(engine_config("exact"))
    recordings, frames, completes, reference = [], [], [], []
    for r in range(geometry["distinct"]):
        rr = _cleaned(patients[r], n_bursts * BURST_SECONDS + 30.0)
        bursts = _bursts(rr, n_bursts)
        recordings.append(bursts)
        frames.append([
            encode_frame({
                "op": "feed", "t": t.tolist(), "rr": x.tolist(),
                "corrected": c.astype(float).tolist(),
            })
            for t, x, c in bursts
        ])
        # Which uplink event completes each window: a streaming session
        # fed the same bursts emits window i right after burst k.
        session = engine.open_stream()
        done = []
        for k, (t, x, c) in enumerate(bursts):
            done += [k] * len(session.feed(t, x, c))
        result = session.finalize()
        done += [n_bursts] * (result.welch.n_windows - len(done))
        completes.append(done)
        reference.append(expected(engine.analyze(
            _head(rr, n_bursts * BURST_SECONDS)
        ), wire=True))
    plan = {
        "slots": geometry["slots"], "period": period,
        "bursts": n_bursts, "gap": geometry["gap"],
        "subjects_per_slot": subjects_per_slot,
        "tenant": TENANT, "token": TOKEN,
        "frames": frames, "completes": completes, "expected": reference,
    }
    warmup = {"recording": [
        np.concatenate(parts) for parts in zip(*recordings[0])
    ]}
    return {"plan": plan}, warmup, {}


def _ecg(geometry, patients, seconds):
    duration = geometry["minutes"] * 60.0
    engine = Engine(engine_config("exact"))
    records, reference = [], {}
    for i in range(geometry["subjects"]):
        rr = generate_tachogram(patients[i], duration)
        t, ecg = synthesize_ecg(
            rr.times, sampling_rate=SAMPLING_RATE, seed=patients[i].seed
        )
        records.append((t, ecg))
        reference[i] = expected(engine.analyze(
            ecg_record_to_rr(t, ecg, sampling_rate=SAMPLING_RATE)
        ))
    head = int(240 * SAMPLING_RATE)
    warmup = {"records": [(t[:head], x[:head]) for t, x in records[:1]]}
    inputs = {"records": records, "frame": FRAME_SAMPLES}
    return inputs, warmup, reference


_BUILDERS = {
    "holter_cohort": _holter,
    "ward_stream": _ward,
    "gateway_stream": _gateway,
    "ecg_stream": _ecg,
}


def node_counts() -> dict:
    """Modelled sensor-node cost per window at every quality level.

    One untimed ``count_ops=True`` pass per level over a fixed probe
    recording (the default cohort's first patient, 30 min), so the
    counts repeat exactly from run to run whatever the workload seed.
    """
    probe = _cleaned(_patients(0)[0], 1800.0)
    node = SensorNodeModel()
    metrics = {}
    for level in LEVELS:
        result = Engine(engine_config(level)).analyze(probe, count_ops=True)
        n = result.welch.n_windows
        metrics[f"node.mults_per_window.{level}"] = (
            result.counts.mults / n, "count")
        metrics[f"node.energy_uj_per_window.{level}"] = (
            node.execute(result.counts).energy * 1e6 / n, "uJ")
    return metrics
