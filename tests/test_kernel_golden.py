"""Golden digests of the Fast-Lomb kernel at every quality level.

The fused-kernel and stream-vs-batch matrices compare two paths that
both run through the same dense kernel, so a change that moves every
path alike passes them.  These digests do not: they were taken from the
per-grid-length, one-transform-per-rung kernel, and pin what any later
restructuring of it must still produce byte for byte.

* Whole-recording :meth:`Engine.analyze` with ``count_ops=True`` of two
  seeded 2 h tachograms at exact, unpruned wavelet, band drop, the
  three paper sets and dynamic set 2: spectrogram, every window's
  power, frequencies, moments and :class:`OpCounts`.  Their 2-min
  windows span frequency grids of 94 and 95 bins.
* The same modes over a uniform span layout (equal beat counts at a
  constant stride), which entered the kernel through a zero-copy
  window-matrix path when these digests were taken; it now takes the
  one span-batch entry like every other layout.
* A hub holding one subject per ladder rung, fed in 60 s bursts and
  flushed after each: every emission, then ``finalize_all``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.ecg.rr_synthesis import TachogramSpec, generate_tachogram
from repro.engine import Engine, EngineConfig, SLOSpec
from repro.engine.engine import build_system
from repro.lomb.welch import analyze_spans_quality
from repro.perf import execution

#: Two seeded 2 h tachograms of different rate and variability.
SPECS = {
    41: TachogramSpec(seed=41, ectopic_rate=0.01),
    42: TachogramSpec(seed=42, mean_rr=0.7, jitter=0.02),
}

MODES = ("exact", "full", "band", "set1", "set2", "set3", "set2-dynamic")


def _config(mode: str) -> EngineConfig:
    if mode == "full":
        return EngineConfig(system="quality-scalable", provider="numpy")
    if mode == "set2-dynamic":
        return EngineConfig.for_mode("set2", dynamic=True, provider="numpy")
    return EngineConfig.for_mode(mode, provider="numpy")


def _digest():
    return hashlib.blake2b(digest_size=16)


def _update_counts(h, counts) -> None:
    h.update(repr((counts.mults, counts.adds, counts.compares)).encode())


def _update_spectra(h, spectra) -> None:
    for spectrum in spectra:
        h.update(spectrum.frequencies.tobytes())
        h.update(spectrum.power.tobytes())
        h.update(np.array([spectrum.mean, spectrum.variance]).tobytes())
        h.update(repr((spectrum.n_samples, spectrum.duration)).encode())
        _update_counts(h, spectrum.counts)


def _update_result(h, result) -> None:
    welch = result.welch
    h.update(welch.frequencies.tobytes())
    h.update(welch.spectrogram.tobytes())
    h.update(welch.window_times.tobytes())
    _update_spectra(h, welch.window_spectra)
    _update_counts(h, result.counts)
    h.update(result.window_ratios.tobytes())
    h.update(np.float64(result.lf_hf).tobytes())


@pytest.fixture(scope="module")
def recordings():
    return {
        seed: generate_tachogram(spec, 7200.0)
        for seed, spec in SPECS.items()
    }


# ----------------------------------------------------------------------
# Whole recordings and uniform span layouts
# ----------------------------------------------------------------------

#: blake2b-128 of one ``Engine.analyze(count_ops=True)`` per (seed, mode).
GOLDEN_ANALYZE = {
    (41, "exact"): "3f11ed2b7551b3eec867fefb4fdfd1a6",
    (41, "full"): "0cc8f845f0ff8adfc2b0da904c67fba7",
    (41, "band"): "aee97df317982eb62e8a084ca4619aa6",
    (41, "set1"): "d03c7554f0224d8373429e7d9eb97e46",
    (41, "set2"): "475fe33aefe65196231addb23a951b8d",
    (41, "set3"): "41bceff19d9fe31d531d5dfafbde083a",
    (41, "set2-dynamic"): "4f8d71770cc3c813a7fa42a6f09b4104",
    (42, "exact"): "ee5dd2eccb624ba54cdc5267326e146c",
    (42, "full"): "fe47bf57e11a3db43a81f822bde5cdd3",
    (42, "band"): "25b5f9777e58685c009173474772caf0",
    (42, "set1"): "178f709098ba16616b7b6e75730932f6",
    (42, "set2"): "822012456c1b9aecc498939e967fa688",
    (42, "set3"): "018b40b7a3099edf25f6b294e8b8d5da",
    (42, "set2-dynamic"): "3f1390f0d2518dd55edbd16f4ca91ec2",
}

#: blake2b-128 of one uniform-layout ``analyze_spans_quality`` call.
GOLDEN_UNIFORM = {
    (41, "exact"): "c67166be9a25b2c406f30eda4b9406eb",
    (41, "full"): "2a8630f0cb937e74837a9529163e9418",
    (41, "band"): "3114791b5aa351e20c2b2d61fd4032e6",
    (41, "set1"): "38504218a4240c7ba04f0d203d1f9696",
    (41, "set2"): "d792bff4f663613e97f07587feac7c88",
    (41, "set3"): "0355fdc0fa3dca2726d293263e492451",
    (41, "set2-dynamic"): "d898ab9fa870b7094b3f1b0b1ff3db34",
    (42, "exact"): "84d724931ad3b5318b46b2d4a082c6f1",
    (42, "full"): "59f4acf5bcd2f0d50f765cb20b4775f4",
    (42, "band"): "a817ed30807f87d2fde6013572dce207",
    (42, "set1"): "9325800a98f9ff0d0d57a228fd075fa3",
    (42, "set2"): "fb852c7a6ab50a10ac569cdb0d00bcc5",
    (42, "set3"): "2517d36d657034457d08d15a82b05219",
    (42, "set2-dynamic"): "dec61aa0fe33a790442f6edbcafc5c84",
}

#: 60 windows of 150 beats, 70 beats apart: equal beat counts and a
#: constant stride (the layout the retired window-matrix path took),
#: while their durations still span several grid lengths.
UNIFORM_SPANS = tuple((70 * k, 70 * k + 150) for k in range(60))


@pytest.mark.parametrize("seed", sorted(SPECS))
@pytest.mark.parametrize("mode", MODES)
def test_analyze_matches_golden(recordings, seed, mode):
    with Engine(_config(mode)) as engine:
        result = engine.analyze(recordings[seed], count_ops=True)
    nouts = {s.frequencies.size for s in result.welch.window_spectra}
    assert {94, 95} <= nouts
    h = _digest()
    _update_result(h, result)
    assert h.hexdigest() == GOLDEN_ANALYZE[seed, mode]


@pytest.mark.parametrize("seed", sorted(SPECS))
@pytest.mark.parametrize("mode", MODES)
def test_uniform_layout_matches_golden(recordings, seed, mode):
    rr = recordings[seed]
    analyzer = build_system(_config(mode)).welch.analyzer
    with execution(provider="numpy"):
        spectra, metrics = analyze_spans_quality(
            analyzer, rr.times, rr.intervals, UNIFORM_SPANS, True
        )
    assert len({s.frequencies.size for s in spectra}) >= 2
    h = _digest()
    _update_spectra(h, spectra)
    h.update(json.dumps([m.to_dict() for m in metrics]).encode())
    assert h.hexdigest() == GOLDEN_UNIFORM[seed, mode]


# ----------------------------------------------------------------------
# A hub with one subject per rung
# ----------------------------------------------------------------------

#: blake2b-128 of every emission and of ``finalize_all``, per system.
GOLDEN_HUB = {
    "conventional": (
        "ce371ccd263791a905079a89fd8d0eb0",
        "f76c5abfde0d6c0dfe4587706e3d4cef",
    ),
    "quality-scalable": (
        "139d471bb0b92748b4dd8db716d6fc91",
        "276c7f4f18c1c484fb500750196c2fda",
    ),
}

HUB_SECONDS = 900.0
BURST_SECONDS = 60.0


def _hub_digests(system: str) -> tuple[str, str]:
    config = EngineConfig(system=system, provider="numpy", slo=SLOSpec())
    with Engine(config) as engine:
        hub = engine.open_hub(count_ops=True)
        subjects = [f"bed-{level}" for level in range(len(hub.ladder))]
        series = {}
        for level, subject in enumerate(subjects):
            hub.open(subject)
            hub.set_quality(subject, level)
            series[subject] = generate_tachogram(
                TachogramSpec(seed=500 + level), HUB_SECONDS
            )
        emitted = _digest()
        for t0 in np.arange(0.0, HUB_SECONDS, BURST_SECONDS):
            events = []
            for subject in subjects:
                rr = series[subject]
                burst = (rr.times >= t0) & (rr.times < t0 + BURST_SECONDS)
                events.append(
                    (subject, rr.times[burst], rr.intervals[burst])
                )
            flushed = hub.feed_round(events)
            for subject in subjects:
                for e in flushed.get(subject, ()):
                    emitted.update(
                        repr((subject, e.index, e.quality)).encode()
                    )
                    emitted.update(np.array([e.start, e.center]).tobytes())
                    _update_spectra(emitted, [e.spectrum])
                    emitted.update(json.dumps(e.metrics.to_dict()).encode())
        results = hub.finalize_all()
        finalized = _digest()
        for subject in subjects:
            finalized.update(subject.encode())
            _update_result(finalized, results[subject])
    return emitted.hexdigest(), finalized.hexdigest()


@pytest.mark.parametrize("system", ["conventional", "quality-scalable"])
def test_hub_one_subject_per_rung_matches_golden(system):
    assert _hub_digests(system) == GOLDEN_HUB[system]
