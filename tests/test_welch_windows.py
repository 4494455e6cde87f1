"""Edge-case tests for window layout and result assembly.

Covers the ``iter_windows`` corner cases (trailing partial windows,
single-window recordings, zero overlap, beat-starved windows skipped by
``MIN_BEATS_PER_WINDOW``), the overlap-aware ``averaged_spectrum``
duration, and the vectorised spectrogram assembly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lomb.fast import FastLomb, LombBatch, LombSpectrum
from repro.lomb.welch import (
    MIN_BEATS_PER_WINDOW,
    WelchLomb,
    assemble_result,
    iter_windows,
)


def _beat_times(duration, rr=0.8, start=0.0):
    return start + np.arange(0.0, duration, rr)


class TestIterWindowsEdges:
    def test_trailing_partial_window_kept_at_half_duration(self):
        # ~151 s of beats, 60 s windows, no overlap: the trailing window
        # spans just over half the nominal duration, so it is kept.
        times = _beat_times(151.2)
        spans = iter_windows(times, 60.0, 0.0)
        assert len(spans) == 3
        start, stop = spans[-1]
        assert times[stop - 1] - times[start] >= 0.5 * 60.0

    def test_trailing_partial_window_dropped_below_half(self):
        # 140 s of beats: the trailing 20 s stub is below half and drops.
        times = _beat_times(140.0)
        spans = iter_windows(times, 60.0, 0.0)
        assert len(spans) == 2

    def test_single_window_recording(self):
        times = _beat_times(90.0)
        spans = iter_windows(times, 120.0, 0.5)
        assert len(spans) == 1
        assert spans[0] == (0, times.size)

    def test_zero_overlap_spans_are_disjoint(self):
        times = _beat_times(600.0)
        spans = iter_windows(times, 120.0, 0.0)
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert start >= stop - 1  # at most the shared edge beat

    def test_half_overlap_doubles_window_count(self):
        times = _beat_times(600.0)
        none = iter_windows(times, 120.0, 0.0)
        half = iter_windows(times, 120.0, 0.5)
        assert len(half) >= 2 * len(none) - 2

    def test_sparse_window_skipped_for_min_beats(self):
        # Dense beats, then a 120 s stretch holding only ~5 beats, then
        # dense again: the sparse window is laid out but rejected.
        dense_a = _beat_times(120.0, rr=0.8)
        sparse = _beat_times(120.0, rr=25.0, start=120.0)
        dense_b = _beat_times(121.0, rr=0.8, start=240.0)
        times = np.concatenate([dense_a, sparse, dense_b])
        values = 0.8 + 0.01 * np.sin(np.arange(times.size))
        welch = WelchLomb(
            FastLomb(max_frequency=0.4), window_seconds=120.0, overlap=0.0
        )
        plan = welch.plan_windows(times, values)
        assert plan.skipped == 1
        result = welch.analyze(times, values)
        assert result.skipped_windows == 1
        assert result.n_windows == 2
        sparse_spans = [
            (start, stop)
            for start, stop in iter_windows(times, 120.0, 0.0)
            if stop - start < MIN_BEATS_PER_WINDOW
        ]
        assert len(sparse_spans) == 1


class TestAveragedSpectrumDuration:
    def test_overlapped_windows_not_double_counted(self):
        times = _beat_times(600.0)
        values = 0.8 + 0.05 * np.sin(2 * np.pi * 0.1 * times)
        result = WelchLomb(FastLomb(max_frequency=0.4)).analyze(times, values)
        assert result.n_windows > 4
        view = result.averaged_spectrum()
        covered = times[-1] - times[0]
        # The analysed windows span (almost) the whole recording — not
        # n_windows * window_duration, which 50 % overlap would nearly
        # double.
        assert view.duration == pytest.approx(covered, rel=0.05)
        naive = result.window_spectra[-1].duration * result.n_windows
        assert view.duration < 0.7 * naive

    def test_single_window_duration_is_window_duration(self):
        times = _beat_times(90.0)
        values = 0.8 + 0.02 * np.sin(times)
        result = WelchLomb(
            FastLomb(max_frequency=0.4), window_seconds=120.0
        ).analyze(times, values)
        assert result.n_windows == 1
        view = result.averaged_spectrum()
        assert view.duration == pytest.approx(
            result.window_spectra[0].duration
        )


class TestAssembleResult:
    def _spectrum(self, grid, power, duration=100.0):
        return LombSpectrum(
            frequencies=grid,
            power=power,
            mean=0.8,
            variance=0.01,
            n_samples=64,
            duration=duration,
        )

    def test_equal_grids_stacked_verbatim(self):
        grid = 0.01 * np.arange(1, 33)
        powers = [np.full(32, float(k)) for k in range(3)]
        result = assemble_result(
            LombBatch.stack(self._spectrum(grid, p) for p in powers),
            window_times=np.array([50.0, 100.0, 150.0]),
            skipped=2,
        )
        np.testing.assert_array_equal(result.spectrogram, np.stack(powers))
        np.testing.assert_array_equal(
            result.averaged, np.stack(powers).mean(axis=0)
        )
        assert result.skipped_windows == 2
        assert result.counts is None

    def test_ragged_grid_interpolated(self):
        grid = 0.01 * np.arange(1, 33)
        short_grid = 0.02 * np.arange(1, 17)
        full = self._spectrum(grid, np.ones(32))
        ragged = self._spectrum(short_grid, np.arange(16.0), duration=50.0)
        result = assemble_result(
            LombBatch.stack([full, ragged]),
            window_times=np.array([50.0, 110.0]),
            skipped=0,
        )
        np.testing.assert_array_equal(result.spectrogram[0], np.ones(32))
        expected = np.interp(
            grid, short_grid, np.arange(16.0), left=0.0, right=0.0
        )
        np.testing.assert_array_equal(result.spectrogram[1], expected)

    def test_empty_spectra_rejected(self):
        from repro.errors import SignalError

        with pytest.raises(SignalError):
            assemble_result(
                LombBatch.stack([]), window_times=np.empty(0), skipped=0
            )
