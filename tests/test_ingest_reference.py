"""The ingest kernels against the loops they replaced, and dirty input.

:class:`~repro.ecg.qrs.QrsDetector` replays ``sosfiltfilt`` with
per-detector filter state and refines every peak in one array pass;
:mod:`repro.hrv.preprocessing` takes every local median in one
``np.median`` call.  The per-call and per-position loops those replaced
live on here as references, and each fast path must equal its
reference byte for byte — including the edge cases the loops handled
implicitly (clipped refinement windows, first-maximum ties, degenerate
parabolas, NaN windows).

Golden digests pin the streaming detector's beat times on three seeded
records.  The stream-vs-batch matrices in ``test_ingest.py`` compare
two paths that share the detector, so a change that moves both sides
together passes them; these digests do not.

The dirty-input suite pins the typed errors the streaming stages raise
for non-finite or off-grid input, and that a rejected push leaves the
stage exactly as it was.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from repro.ecg import make_cohort, synthesize_ecg
from repro.ecg.qrs import QrsDetector, StreamingQrsDetector
from repro.errors import SignalError
from repro.hrv.preprocessing import (
    StreamingPreprocessor,
    _flag_ectopics,
    detect_ectopic_mask,
    filter_artifacts,
)
from repro.hrv.rr import RRSeries
from repro.ingest import ecg_frames

SAMPLING_RATE = 250.0
WINDOWS = tuple(range(3, 22, 2))


def _record(index: int, duration: float, seed: int, noise: float = 0.01):
    rr = list(make_cohort())[index].rr_series(duration=duration)
    return synthesize_ecg(
        rr.times, sampling_rate=SAMPLING_RATE, noise_std=noise, seed=seed
    )


@pytest.fixture(scope="module")
def short_record():
    """A 40 s rendered ECG trace: ~10 k samples, five 8 s blocks."""
    return _record(1, 40.0, seed=5)


# ----------------------------------------------------------------------
# References: the loops the array paths replaced
# ----------------------------------------------------------------------


def _feature_reference(detector: QrsDetector, x: np.ndarray):
    filtered = sps.sosfiltfilt(detector._sos, x)
    derivative = np.gradient(filtered) * detector.fs
    window = max(int(detector.integration_window * detector.fs), 1)
    kernel = np.ones(window) / window
    return filtered, np.convolve(derivative**2, kernel, mode="same")


def _refine_reference(filtered: np.ndarray, beats, half: int) -> np.ndarray:
    refined = np.empty(len(beats), dtype=np.float64)
    for i, b in enumerate(beats):
        lo, hi = max(b - half, 0), min(b + half + 1, filtered.size)
        local = np.abs(filtered[lo:hi])
        peak = lo + int(np.argmax(local))
        if 0 < peak < filtered.size - 1:
            y0, y1, y2 = (
                abs(filtered[peak - 1]),
                abs(filtered[peak]),
                abs(filtered[peak + 1]),
            )
            denom = y0 - 2 * y1 + y2
            shift = 0.5 * (y0 - y2) / denom if abs(denom) > 1e-12 else 0.0
            refined[i] = peak + float(np.clip(shift, -0.5, 0.5))
        else:
            refined[i] = float(peak)
    return refined


def _medians_reference(rr: np.ndarray, window: int) -> np.ndarray:
    half = window // 2
    padded = np.concatenate([rr[half:0:-1], rr, rr[-2 : -half - 2 : -1]])
    medians = np.empty_like(rr)
    for i in range(rr.size):
        medians[i] = np.median(padded[i : i + window])
    return medians


def _mask_reference(rr, window: int, tolerance: float = 0.2) -> np.ndarray:
    medians = _medians_reference(rr, window)
    return np.abs(rr - medians) / medians > tolerance


def _cleaned_reference(rr, window: int, tolerance: float = 0.2):
    flagged = _mask_reference(rr, window, tolerance)
    cleaned = rr.copy()
    medians = _medians_reference(rr, window)
    for i in np.flatnonzero(flagged):
        cleaned[i] = medians[i]
    return cleaned, flagged


def _ectopic_series(n: int = 400, seed: int = 3) -> RRSeries:
    rng = np.random.default_rng(seed)
    intervals = 0.8 + 0.04 * rng.standard_normal(n)
    hit = rng.choice(n, n // 25, replace=False)
    intervals[hit] *= rng.choice([0.55, 1.6], hit.size)
    intervals[:2] = (1.5, 0.5)  # artifacts inside the reflected edges
    intervals[-1] = 1.45
    return RRSeries.from_intervals(intervals)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Zero-phase filter and feature signal
# ----------------------------------------------------------------------


class TestCachedFilter:
    @pytest.mark.parametrize(
        "fs, band", [(250.0, (5.0, 15.0)), (360.0, (8.0, 20.0))]
    )
    def test_equals_sosfiltfilt_from_padlen_up(self, fs, band):
        detector = QrsDetector(sampling_rate=fs, band=band)
        rng = np.random.default_rng(17)
        for n in (
            detector._padlen + 1,
            detector._padlen + 2,
            33,
            64,
            257,
            1001,
            2500,
        ):
            x = np.cumsum(rng.standard_normal(n))
            _same_bytes(
                detector._zero_phase(x), sps.sosfiltfilt(detector._sos, x)
            )

    def test_short_input_raises_sosfiltfilt_error(self):
        detector = QrsDetector()
        for n in (0, 1, 2, detector._padlen - 1, detector._padlen):
            x = np.linspace(0.0, 1.0, n)
            with pytest.raises(ValueError) as reference:
                sps.sosfiltfilt(detector._sos, x)
            with pytest.raises(ValueError) as cached:
                detector._zero_phase(x)
            assert str(cached.value) == str(reference.value)

    def test_feature_signal_equals_reference(self, short_record):
        _, ecg = short_record
        detector = QrsDetector()
        for lo, hi in ((0, ecg.size), (100, 2350), (5000, 5100)):
            got = detector._feature_signal(ecg[lo:hi])
            want = _feature_reference(detector, ecg[lo:hi])
            for g, w in zip(got, want):
                _same_bytes(g, w)


# ----------------------------------------------------------------------
# Peak refinement
# ----------------------------------------------------------------------


class TestRefinement:
    def _check(self, filtered, beats):
        detector = QrsDetector()
        beats = np.asarray(beats, dtype=np.int64)
        _same_bytes(
            detector._refine_peaks(filtered, beats),
            _refine_reference(filtered, beats, detector._refine_half),
        )

    def test_random_traces_all_positions(self):
        rng = np.random.default_rng(29)
        half = QrsDetector()._refine_half
        for n in (2 * half + 3, 64, 400):
            filtered = rng.standard_normal(n)
            self._check(filtered, np.arange(n))

    def test_beats_within_a_half_window_of_either_end(self):
        half = QrsDetector()._refine_half
        n = 120
        filtered = np.sin(np.arange(n) * 0.37) * np.linspace(1.0, 2.0, n)
        edges = list(range(0, half + 2)) + list(range(n - half - 2, n))
        self._check(filtered, edges)

    def test_peaks_on_first_and_last_sample(self):
        n = 80
        falling = np.linspace(3.0, 0.1, n)
        self._check(falling, [0, 1, 5, 12])
        self._check(-falling[::-1], [n - 1, n - 3, n - 12])

    def test_flat_tops_keep_the_first_maximum(self):
        filtered = np.zeros(60)
        filtered[20:25] = 2.0
        filtered[40] = -2.0  # |x| ties with the plateau
        filtered[45:47] = 2.0
        # Beat 3's clipped window is all zeros: its first sample wins.
        self._check(filtered, [3, 18, 22, 26, 40, 43, 46, 52])

    def test_degenerate_parabolas(self):
        base = np.zeros(40)
        cases = []
        for y0, y2 in (
            (1.0 - 4e-14, 1.0 - 4e-14),  # |denom| well below 1e-12
            (1.0 - 1e-13, 1.0 - 4e-13),  # |denom| ~5e-13: no shift
            (1.0 - 5e-13, 1.0 - 5e-13),  # |denom| at the threshold
            (1.0 - 1e-12, 1.0 - 2e-12),  # just above: shift computed
            (1.0, 1.0),  # flat: zero denominator
            (0.2, 0.9),  # ordinary parabola
        ):
            trace = base.copy()
            trace[19:22] = (y0, 1.0, y2)
            cases.append(trace)
        for trace in cases:
            self._check(trace, [20, 17, 23])
            self._check(-trace, [20])


# ----------------------------------------------------------------------
# Local medians
# ----------------------------------------------------------------------


class TestLocalMedians:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_rows_equal_one_dimensional_medians(self, window):
        rng = np.random.default_rng(window)
        rr = 0.8 + 0.1 * rng.standard_normal(97)
        rr[[0, 30, 31, 96]] = np.nan
        got = _flag_ectopics(rr, window, 0.2)[1]
        want = _medians_reference(rr, window)
        np.testing.assert_array_equal(got, want)
        finite = np.isfinite(want)
        assert not finite.all()
        _same_bytes(got[finite], want[finite])

    @pytest.mark.parametrize("window", WINDOWS)
    def test_ectopic_mask_equals_loop(self, window):
        rr = _ectopic_series().intervals
        _same_bytes(
            detect_ectopic_mask(rr, window), _mask_reference(rr, window)
        )
        with_nan = rr.copy()
        with_nan[[0, 57, 200]] = np.nan
        _same_bytes(
            detect_ectopic_mask(with_nan, window),
            _mask_reference(with_nan, window),
        )
        shortest = rr[:window]
        _same_bytes(
            detect_ectopic_mask(shortest, window),
            _mask_reference(shortest, window),
        )

    @pytest.mark.parametrize("window", WINDOWS)
    def test_filter_artifacts_equals_loop(self, window):
        series = _ectopic_series()
        report = filter_artifacts(series, window=window)
        cleaned, flagged = _cleaned_reference(series.intervals, window)
        assert flagged.any()
        _same_bytes(report.series.intervals, cleaned)
        _same_bytes(report.series.corrected, flagged)
        _same_bytes(report.corrected_indices, np.flatnonzero(flagged))

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("chunk", (1, 3, 64, None))
    def test_streaming_preprocessor_equals_loop(self, window, chunk):
        series = _ectopic_series()
        n = series.n_beats
        step = n if chunk is None else chunk
        pre = StreamingPreprocessor(window=window)
        outs = [
            pre.push(
                series.times[lo : lo + step], series.intervals[lo : lo + step]
            )
            for lo in range(0, n, step)
        ]
        outs.append(pre.finalize())
        cleaned, flagged = _cleaned_reference(series.intervals, window)
        _same_bytes(np.concatenate([o[0] for o in outs]), series.times)
        _same_bytes(np.concatenate([o[1] for o in outs]), cleaned)
        _same_bytes(np.concatenate([o[2] for o in outs]), flagged)
        assert pre.n_flagged == np.count_nonzero(flagged)


# ----------------------------------------------------------------------
# Golden beat times and framing invariance
# ----------------------------------------------------------------------


#: blake2b-128 of ``detect_record`` beat times (float64 bytes) for three
#: seeded 120 s records, recorded before the array rewrite of the
#: detector: ``(cohort index, ECG seed, noise std) -> (beats, digest)``.
GOLDEN = {
    (0, 11, 0.01): (122, "b7ac9caae786bd58779aa32c68705a68"),
    (2, 22, 0.05): (158, "104d9145c134c1d61a710c7884ac93d7"),
    (4, 33, 0.15): (138, "45c46a29e95bfd14dd3bcb13a32afc28"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_detect_record_golden_digest(key):
    index, seed, noise = key
    t, ecg = _record(index, 120.0, seed=seed, noise=noise)
    beats = StreamingQrsDetector(sampling_rate=SAMPLING_RATE).detect_record(
        t, ecg
    )
    n_beats, digest = GOLDEN[key]
    assert beats.dtype == np.float64
    assert beats.size == n_beats
    assert hashlib.blake2b(beats.tobytes(), digest_size=16).hexdigest() == (
        digest
    )


@given(cuts=st.lists(st.integers(min_value=1, max_value=9_999), max_size=12))
@settings(max_examples=15, deadline=None)
def test_random_frame_splits_equal_one_shot(short_record, cuts):
    t, ecg = short_record
    edges = [0, *sorted(set(cuts)), t.size]
    detector = StreamingQrsDetector(sampling_rate=SAMPLING_RATE)
    parts = [
        detector.push(t[lo:hi], ecg[lo:hi])
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    parts.append(detector.finalize())
    _same_bytes(np.concatenate(parts), detector.detect_record(t, ecg))


# ----------------------------------------------------------------------
# Dirty input: typed errors, no state change
# ----------------------------------------------------------------------


def _state(stage) -> dict:
    return {
        name: value.copy() if isinstance(value, np.ndarray) else value
        for name, value in vars(stage).items()
        if name != "_batch"
    }


def _assert_same_state(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for name, value in before.items():
        if isinstance(value, np.ndarray):
            _same_bytes(after[name], value)
        else:
            assert after[name] == value or (
                value != value and after[name] != after[name]
            ), name


class TestDirtyEcg:
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_sample_rejected(self, short_record, bad):
        # Let through, one such sample blanks the filter output of every
        # block whose context holds it, and their beats vanish silently.
        t, ecg = short_record
        dirty = ecg.copy()
        dirty[3000] = bad
        detector = StreamingQrsDetector(sampling_rate=SAMPLING_RATE)
        with pytest.raises(SignalError, match="non-finite samples"):
            detector.push(t, dirty)
        with pytest.raises(SignalError, match="non-finite samples"):
            detector.detect_record(t, dirty)

    def test_non_finite_time_rejected(self, short_record):
        # NaN > tolerance is False: the grid check alone lets it through.
        t, ecg = short_record
        dirty = t.copy()
        dirty[700] = np.nan
        with pytest.raises(SignalError, match="non-finite sample times"):
            StreamingQrsDetector(sampling_rate=SAMPLING_RATE).push(dirty, ecg)

    def test_non_finite_first_time_rejected(self, short_record):
        # Let through, it becomes t0 and turns every beat time into NaN.
        t, ecg = short_record
        dirty = t.copy()
        dirty[0] = np.nan
        detector = StreamingQrsDetector(sampling_rate=SAMPLING_RATE)
        with pytest.raises(SignalError, match="non-finite sample times"):
            detector.push(dirty[:512], ecg[:512])
        assert detector._t0 is None

    def test_off_grid_time_rejected(self, short_record):
        t, ecg = short_record
        detector = StreamingQrsDetector(sampling_rate=SAMPLING_RATE)
        detector.push(t[:512], ecg[:512])
        with pytest.raises(SignalError, match="uniform sample grid"):
            detector.push(t[513:1024], ecg[513:1024])

    def test_rejected_push_changes_no_state(self, short_record):
        t, ecg = short_record
        reference = StreamingQrsDetector(
            sampling_rate=SAMPLING_RATE
        ).detect_record(t, ecg)
        detector = StreamingQrsDetector(sampling_rate=SAMPLING_RATE)
        # A rejected *first* frame must not pin the grid origin either.
        shifted = t[:512] + 0.5
        shifted[3] = np.inf
        gap = t[:512].copy()
        gap[100:] += 0.5
        bad_first = (
            (shifted, ecg[:512]),
            (gap, ecg[:512]),
            (t[:512], np.where(np.arange(512) == 9, np.nan, ecg[:512])),
        )
        for times, values in bad_first:
            before = _state(detector)
            with pytest.raises(SignalError):
                detector.push(times, values)
            _assert_same_state(before, _state(detector))
        parts = []
        frames = list(ecg_frames(t, ecg, frame_samples=2000))
        for k, (times, values) in enumerate(frames):
            if k == 2:
                # Mid-stream: off-grid, NaN time, inf sample.
                at = np.arange(times.size)
                for bad_t, bad_x in (
                    (times + 1.0, values),
                    (np.where(at == 5, np.nan, times), values),
                    (times, np.where(at == 7, np.inf, values)),
                ):
                    before = _state(detector)
                    with pytest.raises(SignalError):
                        detector.push(bad_t, bad_x)
                    _assert_same_state(before, _state(detector))
            parts.append(detector.push(times, values))
        parts.append(detector.finalize())
        _same_bytes(np.concatenate(parts), reference)


class TestDirtyBeats:
    @pytest.mark.parametrize(
        "times, intervals",
        [
            ([1.0, np.nan, 3.0], [0.8, 0.8, 0.8]),
            ([1.0, 2.0, np.inf], [0.8, 0.8, 0.8]),
            ([1.0, 2.0, 3.0], [0.8, np.inf, 0.8]),
            ([1.0, 2.0, 3.0], [-np.inf, 0.8, 0.8]),
            ([1.0, 2.0, 3.0], [0.8, np.nan, 0.8]),
            ([1.0, 2.0, 3.0], [0.8, 0.0, 0.8]),
            ([1.0, 2.0, 3.0], [0.8, -0.8, 0.8]),
        ],
    )
    def test_rejected_like_rr_series(self, times, intervals):
        with pytest.raises(SignalError):
            RRSeries(times=times, intervals=intervals)
        with pytest.raises(SignalError, match="finite, positive"):
            StreamingPreprocessor(window=3).push(times, intervals)

    def test_rejected_push_changes_no_state(self):
        series = _ectopic_series(n=120)
        t, rr = series.times, series.intervals
        pre = StreamingPreprocessor(window=7)
        outs = [pre.push(t[:50], rr[:50])]
        bad = rr[50:70].copy()
        bad[4] = -0.1
        nan_t = t[50:70].copy()
        nan_t[0] = np.nan
        for bad_t, bad_rr in ((t[50:70], bad), (nan_t, rr[50:70])):
            before = _state(pre)
            with pytest.raises(SignalError):
                pre.push(bad_t, bad_rr)
            _assert_same_state(before, _state(pre))
        outs.append(pre.push(t[50:], rr[50:]))
        outs.append(pre.finalize())
        report = filter_artifacts(series, window=7)
        cleaned = report.series
        _same_bytes(np.concatenate([o[1] for o in outs]), cleaned.intervals)
        _same_bytes(np.concatenate([o[2] for o in outs]), cleaned.corrected)
