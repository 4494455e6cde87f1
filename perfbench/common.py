"""Constants and helpers shared by every process of the benchmark.

Nothing here imports :mod:`repro`: the gateway load generator uses
these helpers too, and it must stay independent of the system under
test.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import struct
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of the benchmark inside the checkout (git-ignored).
WORK = ROOT / ".perfbench"

WORKLOADS = ("holter_cohort", "ward_stream", "gateway_stream", "ecg_stream")

#: The paper's quality ladder, best first (``EngineConfig.for_mode`` names).
LEVELS = ("exact", "band", "set1", "set2", "set3")

# Execution settings pinned in every workload's EngineConfig, so neither
# the provider autoselect probe nor the chunk auto-tuner runs while the
# benchmark measures, and REPRO_* environment pins change nothing.
PROVIDER = "numpy"
CHUNK_WINDOWS = 256

SAMPLING_RATE = 250.0
FRAME_SAMPLES = 512
BURST_SECONDS = 60.0
ECTOPIC_RATE = 0.01
TENANT = "default"
TOKEN = "dev-token"


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def engine_config(mode: str, jobs: int = 1):
    """The pinned EngineConfig every workload and reference runs under."""
    from repro import EngineConfig

    return EngineConfig.for_mode(
        mode, provider=PROVIDER, chunk_windows=CHUNK_WINDOWS, jobs=jobs
    )


def sizes(workload: str, tiny: bool) -> dict:
    """Input geometry of one workload (``tiny`` is the self-test mode)."""
    if workload == "holter_cohort":
        return {"recordings": 2, "hours": 1.0 if tiny else 24.0,
                "modes": ("exact", "set3"), "jobs": 2}
    if workload == "ward_stream":
        # 40 ms, not 20 ms: at ~500 windows/s the process ran ~60 % busy
        # on a shared 2-CPU host and its p99 swung 19-134 ms run to run.
        return {"per_level": 2 if tiny else 8, "groups": 4, "tick": 0.04}
    if workload == "gateway_stream":
        # 20 ms per slot (~90 windows/s) for the same reason.
        return {"slots": 2, "period": 0.02, "bursts": 8 if tiny else 30,
                "gap": 2, "distinct": 2 if tiny else 8}
    if workload == "ecg_stream":
        return {"subjects": 2 if tiny else 4, "minutes": 4.0 if tiny else 30.0}
    raise ValueError(f"unknown workload {workload!r}")


def window_digest(power_bytes: bytes, center: float, metrics) -> str:
    """Fingerprint of one analysed window: raw spectrum, time, metrics."""
    h = hashlib.blake2b(digest_size=16)
    h.update(power_bytes)
    h.update(struct.pack("<d", center))
    h.update(json.dumps(metrics, sort_keys=True).encode())
    return h.hexdigest()


def floats_bytes(values) -> bytes:
    """Little-endian float64 bytes of a list of floats (== ndarray.tobytes)."""
    return struct.pack(f"<{len(values)}d", *values)


def result_digest(result) -> str:
    """Fingerprint of an in-process PSAResult: every array and scalar."""
    welch, detection = result.welch, result.detection
    h = hashlib.blake2b(digest_size=16)
    for array in (welch.frequencies, welch.spectrogram, welch.averaged,
                  welch.window_times, result.window_ratios,
                  detection.window_ratios):
        h.update(array.tobytes())
    h.update(json.dumps([
        result.lf_hf, result.band_powers, welch.skipped_windows,
        [m.to_dict() for m in welch.window_metrics],
        bool(detection.is_arrhythmia), detection.ratio, detection.threshold,
        repr(result.counts),
    ], sort_keys=True).encode())
    return h.hexdigest()


def payload_digest(payload: dict) -> str:
    """Fingerprint of a JSON payload (a wire-form result)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``inf`` stays ``inf``)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
