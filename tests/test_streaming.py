"""Streaming ingestion is bit-identical to whole-recording analysis.

The PR 4 acceptance bar: a :class:`StreamingSession` fed incrementally —
sample by sample, or in arbitrary ragged chunks — produces the same
spectrogram, frequency grid, window times, Welch average and executed
:class:`OpCounts`, bit for bit, as :meth:`Engine.analyze` on the
completed recording, for both PSA systems, every pruning mode and every
registered (available) provider.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Engine, EngineConfig, RRSeries, make_cohort
from repro.errors import SignalError
from repro.ffts.pruning import PruningSpec
from repro.ffts.providers.registry import available_providers


@pytest.fixture(scope="module")
def recording():
    return make_cohort().get("rsa-02").rr_series(duration=600.0)


#: Every pruning mode of the paper, plus both exact systems.
ALL_MODE_CONFIGS = [
    pytest.param(EngineConfig(provider="numpy"), id="conventional"),
    pytest.param(
        EngineConfig(system="quality-scalable", provider="numpy"),
        id="wavelet-exact",
    ),
    pytest.param(
        EngineConfig.for_mode("band", provider="numpy"), id="band"
    ),
    pytest.param(
        EngineConfig.for_mode("set1", provider="numpy"), id="set1"
    ),
    pytest.param(
        EngineConfig.for_mode("set2", provider="numpy"), id="set2"
    ),
    pytest.param(
        EngineConfig.for_mode("set3", provider="numpy"), id="set3"
    ),
    pytest.param(
        EngineConfig.for_mode("set3", dynamic=True, provider="numpy"),
        id="set3-dynamic",
    ),
]


def _ragged_chunks(rng, n):
    """Deterministic ragged chunk sizes covering 1..~40-beat bursts."""
    edges = [0]
    while edges[-1] < n:
        edges.append(min(n, edges[-1] + int(rng.integers(1, 40))))
    return list(zip(edges[:-1], edges[1:]))


def _assert_identical(batch, streamed):
    assert np.array_equal(batch.welch.frequencies, streamed.welch.frequencies)
    assert np.array_equal(batch.welch.spectrogram, streamed.welch.spectrogram)
    assert np.array_equal(batch.welch.averaged, streamed.welch.averaged)
    assert np.array_equal(
        batch.welch.window_times, streamed.welch.window_times
    )
    assert batch.welch.skipped_windows == streamed.welch.skipped_windows
    assert batch.counts == streamed.counts
    assert batch.lf_hf == streamed.lf_hf
    assert batch.band_powers == streamed.band_powers
    assert batch.detection.is_arrhythmia == streamed.detection.is_arrhythmia
    for got, want in zip(
        streamed.welch.window_spectra, batch.welch.window_spectra
    ):
        assert np.array_equal(got.power, want.power)
        assert got.counts == want.counts


class TestStreamingEquivalence:
    @pytest.mark.parametrize("config", ALL_MODE_CONFIGS)
    def test_ragged_chunks_bit_identical(self, config, recording):
        rng = np.random.default_rng(2014)
        with Engine(config) as engine:
            batch = engine.analyze(recording, count_ops=True)
            session = engine.open_stream(count_ops=True)
            for lo, hi in _ragged_chunks(rng, recording.times.size):
                session.feed(
                    recording.times[lo:hi], recording.intervals[lo:hi]
                )
            streamed = session.finalize()
        _assert_identical(batch, streamed)

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(EngineConfig(provider="numpy"), id="conventional"),
            pytest.param(
                EngineConfig.for_mode("set3", provider="numpy"), id="set3"
            ),
            pytest.param(
                EngineConfig.for_mode("set3", dynamic=True, provider="numpy"),
                id="set3-dynamic",
            ),
        ],
    )
    def test_sample_by_sample_bit_identical(self, config, recording):
        with Engine(config) as engine:
            batch = engine.analyze(recording, count_ops=True)
            session = engine.open_stream(count_ops=True)
            for t, x in zip(recording.times, recording.intervals):
                session.feed(float(t), float(x))
            streamed = session.finalize()
        _assert_identical(batch, streamed)

    @pytest.mark.parametrize(
        "provider",
        [
            name
            for name, ok in available_providers().items()
            if ok
        ],
    )
    @pytest.mark.parametrize("mode", ["exact", "set3"])
    def test_every_registered_provider(self, provider, mode, recording):
        rng = np.random.default_rng(7)
        config = EngineConfig.for_mode(mode, provider=provider)
        with Engine(config) as engine:
            batch = engine.analyze(recording, count_ops=True)
            session = engine.open_stream(count_ops=True)
            for lo, hi in _ragged_chunks(rng, recording.times.size):
                session.feed(
                    recording.times[lo:hi], recording.intervals[lo:hi]
                )
            streamed = session.finalize()
        _assert_identical(batch, streamed)

    def test_feed_record_whole_recording(self, recording):
        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = engine.analyze(recording)
            session = engine.open_stream()
            session.feed_record(recording)
            streamed = session.finalize()
        _assert_identical(batch, streamed)

    def test_sparse_stretch_skip_counting(self):
        """Windows with too few beats are skipped identically."""
        # Dense minute, a sparse two-minute stretch (enough beats to
        # keep the window but fewer than MIN_BEATS_PER_WINDOW), dense
        # tail: the planner counts skips; the stream must match.
        t = np.concatenate(
            [
                np.arange(0.0, 120.0, 1.0),
                np.arange(120.0, 360.0, 24.0),
                np.arange(360.0, 720.0, 1.0),
            ]
        )
        x = 0.8 + 0.01 * np.sin(2 * np.pi * 0.25 * t)
        rr = RRSeries(times=t, intervals=x)
        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = engine.analyze(rr)
            assert batch.welch.skipped_windows > 0
            session = engine.open_stream()
            for lo in range(0, t.size, 17):
                session.feed(t[lo : lo + 17], x[lo : lo + 17])
            streamed = session.finalize()
        _assert_identical(batch, streamed)


class TestEmissionProtocol:
    def test_windows_emit_as_they_complete(self, recording):
        with Engine(EngineConfig(provider="numpy")) as engine:
            session = engine.open_stream()
            live = []
            for t, x in zip(recording.times, recording.intervals):
                live.extend(session.feed(float(t), float(x)))
            pre_finalize = session.n_windows
            result = session.finalize()
        # Everything but the trailing window(s) streamed out live.
        assert len(live) == pre_finalize
        assert pre_finalize >= result.welch.n_windows - 2
        assert result.welch.n_windows == len(session.emissions)

    def test_emission_metadata_matches_result(self, recording):
        with Engine(EngineConfig(provider="numpy")) as engine:
            session = engine.open_stream()
            session.feed_record(recording)
            result = session.finalize()
        for emission in session.emissions:
            assert emission.index == session.emissions.index(emission)
            assert (
                result.welch.window_times[emission.index] == emission.center
            )
            assert np.array_equal(
                result.welch.window_spectra[emission.index].power,
                emission.spectrum.power,
            )
        starts = [e.start for e in session.emissions]
        assert starts == sorted(starts)

    def test_finalize_is_idempotent(self, recording):
        with Engine(EngineConfig(provider="numpy")) as engine:
            session = engine.open_stream()
            session.feed_record(recording)
            first = session.finalize()
            assert session.finalize() is first
            assert session.finalized

    def test_feed_after_finalize_rejected(self, recording):
        with Engine(EngineConfig(provider="numpy")) as engine:
            session = engine.open_stream()
            session.feed_record(recording)
            session.finalize()
            with pytest.raises(SignalError, match="finalized"):
                session.feed(recording.times[-1] + 1.0, 0.8)

    def test_non_increasing_times_rejected(self):
        with Engine(EngineConfig(provider="numpy")) as engine:
            session = engine.open_stream()
            session.feed([0.0, 1.0], [0.8, 0.8])
            with pytest.raises(SignalError, match="strictly increasing"):
                session.feed(1.0, 0.8)
            with pytest.raises(SignalError, match="strictly increasing"):
                session.feed([2.0, 2.0], [0.8, 0.8])

    def test_shape_validation(self):
        with Engine(EngineConfig(provider="numpy")) as engine:
            session = engine.open_stream()
            with pytest.raises(SignalError, match="match"):
                session.feed([0.0, 1.0], [0.8])
            with pytest.raises(SignalError, match="non-finite"):
                session.feed(np.nan, 0.8)
            with pytest.raises(SignalError, match="RRSeries"):
                session.feed_record((np.arange(4.0), np.ones(4)))
            assert session.feed([], []) == []

    def test_too_short_stream_rejected(self):
        with Engine(EngineConfig(provider="numpy")) as engine:
            session = engine.open_stream()
            session.feed([0.0, 1.0, 2.0], [0.8, 0.8, 0.8])
            with pytest.raises(SignalError, match="at least"):
                session.finalize()

    def test_buffer_growth_preserves_samples(self):
        """Feeds far beyond the initial capacity keep every sample."""
        t = np.arange(0.0, 3000.0, 0.9)
        x = 0.9 + 0.02 * np.sin(2 * np.pi * 0.2 * t)
        rr = RRSeries(times=t, intervals=x)
        with Engine(EngineConfig(provider="numpy")) as engine:
            session = engine.open_stream()
            for lo in range(0, t.size, 100):
                session.feed(t[lo : lo + 100], x[lo : lo + 100])
            assert session.n_samples == t.size
            streamed = session.finalize()
            batch = engine.analyze(rr)
        _assert_identical(batch, streamed)


class TestBoundedMemory:
    def test_long_stream_buffer_bounded_and_identical(self):
        """Hours of streaming hold ~one window of beats, not the stream."""
        t = np.arange(0.0, 7200.0, 1.0)  # two hours of 1 Hz beats
        x = (
            0.9
            + 0.05 * np.sin(2 * np.pi * 0.1 * t)
            + 0.03 * np.sin(2 * np.pi * 0.25 * t)
        )
        rr = RRSeries(times=t, intervals=x)
        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = engine.analyze(rr, count_ops=True)
            session = engine.open_stream(count_ops=True)
            max_buffered = 0
            for lo in range(0, t.size, 250):
                session.feed(t[lo : lo + 250], x[lo : lo + 250])
                max_buffered = max(max_buffered, session.buffered_samples)
            # The full stream is accounted for, but never all resident:
            # compaction dropped everything before the earliest window
            # the session could still need.
            assert session.n_samples == t.size
            assert session.buffered_samples < t.size
            assert session._dropped > 0
            assert max_buffered < 3000  # ~ slack + one window + one chunk
            assert session._times.size <= 4096  # capacity stopped growing
            streamed = session.finalize()
        _assert_identical(batch, streamed)

    def test_compaction_preserves_sample_by_sample_identity(self):
        """Beat-at-a-time feeding across compactions stays bit-exact."""
        t = np.arange(0.0, 2600.0, 0.8)
        x = 0.8 + 0.02 * np.sin(2 * np.pi * 0.2 * t)
        rr = RRSeries(times=t, intervals=x)
        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = engine.analyze(rr, count_ops=True)
            session = engine.open_stream(count_ops=True)
            for beat_t, beat_x in zip(t, x):
                session.feed(float(beat_t), float(beat_x))
            assert session._dropped > 0
            streamed = session.finalize()
        _assert_identical(batch, streamed)

    def test_finalize_releases_sample_buffers(self):
        """A finalized session keeps its result, not its samples."""
        t = np.arange(0.0, 900.0, 0.85)
        x = 0.85 + 0.03 * np.sin(2 * np.pi * 0.2 * t)
        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = engine.analyze(RRSeries(times=t, intervals=x))
            session = engine.open_stream()
            session.feed(t, x)
            assert session.buffered_samples > 0
            result = session.finalize()
            assert session.n_samples == t.size
            assert session.buffered_samples == 0
            assert session._times.size == session._values.size == 0
            assert session._corrected.size == 0
            assert session.finalize() is result
            with pytest.raises(SignalError, match="finalized"):
                session.feed(t[-1] + 1.0, 0.85)
            assert session.n_samples == t.size
        _assert_identical(batch, result)


class TestStreamingPruningSpecifics:
    def test_dynamic_threshold_spec_round_trips_through_stream(
        self, recording
    ):
        """A calibrated fixed dynamic threshold streams identically."""
        spec = PruningSpec.paper_mode(3, dynamic=True).with_dynamic_threshold(
            0.08
        )
        config = EngineConfig(
            system="quality-scalable", pruning=spec, provider="numpy"
        )
        with Engine(config) as engine:
            batch = engine.analyze(recording, count_ops=True)
            session = engine.open_stream(count_ops=True)
            session.feed_record(recording)
            streamed = session.finalize()
        _assert_identical(batch, streamed)
