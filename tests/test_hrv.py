"""Tests for the HRV substrate (containers, bands, metrics, detection)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SignalError
from repro.hrv import (
    HF_BAND,
    LF_BAND,
    STANDARD_BANDS,
    FrequencyBand,
    RRSeries,
    SinusArrhythmiaDetector,
    band_power,
    band_powers,
    detect_ectopic_mask,
    filter_artifacts,
    lf_hf_ratio,
    pnn50,
    ratio_error,
    rmssd,
    sdnn,
    time_domain_summary,
)
from repro.hrv.metrics import window_lf_hf_ratios


def _series(rng, n=200, mean=0.85, jitter=0.02):
    rr = mean + jitter * rng.standard_normal(n)
    return RRSeries.from_intervals(rr)


class TestRRSeries:
    def test_from_intervals_cumulative_times(self):
        series = RRSeries.from_intervals([0.8, 0.9, 1.0])
        np.testing.assert_allclose(series.times, [0.8, 1.7, 2.7])

    def test_from_beat_times(self):
        series = RRSeries.from_beat_times([0.0, 0.8, 1.7, 2.7])
        np.testing.assert_allclose(series.intervals, [0.8, 0.9, 1.0])
        assert series.n_beats == 3

    def test_properties(self, rng):
        series = _series(rng, n=100, mean=0.8, jitter=0.0)
        assert series.n_beats == 100
        assert np.isclose(series.mean_heart_rate, 75.0)
        assert np.isclose(series.duration, 99 * 0.8)

    def test_plausibility_fraction(self):
        series = RRSeries.from_intervals([0.8, 0.85, 5.0, 0.9])
        assert np.isclose(series.plausibility_fraction(), 0.75)

    def test_slice_time(self, rng):
        series = _series(rng, n=300)
        window = series.slice_time(60.0, 120.0)
        assert window.times[0] >= 60.0
        assert window.times[-1] < 120.0

    def test_head(self, rng):
        series = _series(rng)
        assert series.head(10).n_beats == 10

    def test_validation_errors(self):
        with pytest.raises(SignalError):
            RRSeries(times=np.array([1.0, 0.5]), intervals=np.array([1.0, 0.5]))
        with pytest.raises(SignalError):
            RRSeries(times=np.array([1.0, 2.0]), intervals=np.array([1.0, -0.5]))
        with pytest.raises(SignalError):
            RRSeries(times=np.array([1.0, 2.0, 3.0]), intervals=np.array([1.0, 1.0]))
        with pytest.raises(SignalError):
            RRSeries.from_intervals([0.8, 0.9]).slice_time(5.0, 4.0)


class TestBands:
    def test_standard_bands_partition(self):
        """ULF/VLF/LF/HF tile [0, 0.4) without gaps or overlaps."""
        edges = []
        for band in STANDARD_BANDS:
            edges.append((band.low, band.high))
        for (_, hi), (lo, _) in zip(edges, edges[1:]):
            assert hi == lo
        assert edges[0][0] == 0.0
        assert edges[-1][1] == pytest.approx(0.40)

    def test_paper_band_edges(self):
        assert (LF_BAND.low, LF_BAND.high) == (0.04, 0.15)
        assert (HF_BAND.low, HF_BAND.high) == (0.15, 0.40)

    def test_band_power_rectangle_rule(self):
        freqs = np.linspace(0.01, 0.5, 100)
        power = np.ones(100)
        df = freqs[1] - freqs[0]
        expected = np.count_nonzero(LF_BAND.contains(freqs)) * df
        assert np.isclose(band_power(power, LF_BAND, frequencies=freqs), expected)

    def test_band_powers_keys(self):
        freqs = np.linspace(0.001, 0.45, 200)
        power = np.ones(200)
        result = band_powers(power, frequencies=freqs)
        assert set(result) == {"ULF", "VLF", "LF", "HF"}

    def test_invalid_band(self):
        with pytest.raises(SignalError):
            FrequencyBand("bad", 0.2, 0.1)

    def test_spectrum_object_accepted(self, rng):
        from repro.lomb import FastLomb

        series = _series(rng, n=300)
        spectrum = FastLomb(max_frequency=0.4).periodogram(
            series.times, series.intervals
        )
        assert band_power(spectrum, HF_BAND) >= 0


class TestMetrics:
    def test_lf_hf_ratio_synthetic_spectrum(self):
        freqs = np.linspace(0.005, 0.45, 500)
        power = np.where((freqs >= 0.04) & (freqs < 0.15), 2.0, 0.0)
        power += np.where((freqs >= 0.15) & (freqs < 0.40), 1.0, 0.0)
        ratio = lf_hf_ratio(power, frequencies=freqs)
        # LF: 2.0 over 0.11 Hz; HF: 1.0 over 0.25 Hz -> ratio ~ 0.88.
        assert ratio == pytest.approx(2.0 * 0.11 / 0.25, rel=0.05)

    def test_ratio_error(self):
        assert ratio_error(0.465, 0.45) == pytest.approx(1.0 / 30.0, rel=1e-6)
        with pytest.raises(SignalError):
            ratio_error(1.0, 0.0)

    def test_sdnn_rmssd_known_values(self):
        series = RRSeries.from_intervals([0.8, 0.9, 0.8, 0.9, 0.8])
        assert sdnn(series) == pytest.approx(
            np.std([800, 900, 800, 900, 800], ddof=1)
        )
        assert rmssd(series) == pytest.approx(100.0)

    def test_pnn50(self):
        series = RRSeries.from_intervals([0.8, 0.9, 0.91, 0.92])
        # diffs: 100 ms, 10 ms, 10 ms -> 1 of 3 above 50 ms.
        assert pnn50(series) == pytest.approx(1.0 / 3.0)

    def test_pnn20(self):
        from repro.hrv import pnn20

        series = RRSeries.from_intervals([0.8, 0.9, 0.91, 0.94])
        # diffs: 100 ms, 10 ms, 30 ms -> 2 of 3 above 20 ms.
        assert pnn20(series) == pytest.approx(2.0 / 3.0)
        # pNN20's threshold is laxer, so it can only ever be >= pNN50.
        assert pnn20(series) >= pnn50(series)

    def test_summary_keys(self, rng):
        summary = time_domain_summary(_series(rng))
        assert set(summary) == {
            "mean_rr_ms", "mean_hr_bpm", "sdnn_ms", "rmssd_ms", "sdsd_ms",
            "pnn50", "pnn20",
        }

    def test_window_metrics_batch_flags(self):
        from repro.hrv.metrics import (
            FLAG_ARTIFACT_RUN,
            FLAG_FEW_BEATS,
            FLAG_HIGH_CORRECTED,
            WindowMetrics,
            window_metrics_batch,
        )

        rng = np.random.default_rng(5)
        rr = 0.8 + 0.01 * rng.standard_normal(200)
        corrected = np.zeros(200)
        corrected[100:104] = 1.0  # a 4-beat artifact run
        spans = [(0, 80), (80, 120), (120, 140)]
        metrics = window_metrics_batch(rr, spans, corrected=corrected)
        assert len(metrics) == 3
        assert all(isinstance(m, WindowMetrics) for m in metrics)
        # First window: 80 clean beats, no flags.
        assert metrics[0].flags == 0
        assert metrics[0].n_beats == 80
        # Second window: 40 beats (few), 10% corrected, run of 4.
        assert metrics[1].flags & FLAG_FEW_BEATS
        assert metrics[1].flags & FLAG_HIGH_CORRECTED
        assert metrics[1].flags & FLAG_ARTIFACT_RUN
        assert metrics[1].corrected_fraction == pytest.approx(0.1)
        assert set(metrics[1].flag_names) == {
            "few_beats", "high_corrected", "artifact_run",
        }
        # Round trip through the wire form is exact.
        assert (
            WindowMetrics.from_dict(metrics[1].to_dict()) == metrics[1]
        )

    def test_window_metrics_none_mask_equals_zero_mask(self):
        from repro.hrv.metrics import window_metrics_batch

        rng = np.random.default_rng(9)
        rr = 0.8 + 0.01 * rng.standard_normal(150)
        spans = [(0, 100), (50, 150)]
        assert window_metrics_batch(rr, spans) == window_metrics_batch(
            rr, spans, corrected=np.zeros(150)
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        scale=st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_sdnn_scales_linearly(self, seed, scale):
        rng = np.random.default_rng(seed)
        rr = 0.8 + 0.05 * rng.random(50)
        a = sdnn(RRSeries.from_intervals(rr))
        b = sdnn(RRSeries.from_intervals(rr * scale))
        assert np.isclose(b, a * scale, rtol=1e-9)


def _raised(fn) -> str:
    """The message of the :class:`SignalError` *fn* raises."""
    with pytest.raises(SignalError) as info:
        fn()
    return str(info.value)


class TestWindowLfHfRatios:
    """The one-pass ratios against the per-spectrum lf_hf_ratio loop."""

    @staticmethod
    def _reference(spectrogram, frequencies):
        return np.array(
            [lf_hf_ratio(row, frequencies=frequencies) for row in spectrogram]
        )

    @staticmethod
    def _spectrogram(rng):
        freqs = np.linspace(0.0, 0.4, 96)
        return freqs, rng.random((12, freqs.size))

    def test_no_windows_no_ratios(self):
        ratios = window_lf_hf_ratios(np.empty((0, 8)), np.linspace(0, 0.4, 8))
        assert ratios.shape == (0,) and ratios.dtype == np.float64

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(SignalError, match="two-dimensional"):
            window_lf_hf_ratios(np.ones(8), np.linspace(0, 0.4, 8))

    @pytest.mark.parametrize(
        "faults",
        [
            [(0, "nan")],
            [(7, "inf")],
            [(2, "zero_hf"), (5, "nan")],
            [(2, "nan"), (5, "zero_hf")],
        ],
    )
    def test_first_offending_row_raises_as_loop_does(self, rng, faults):
        freqs, spectrogram = self._spectrogram(rng)
        for row, fault in faults:
            if fault == "zero_hf":
                spectrogram[row, HF_BAND.contains(freqs)] = 0.0
            else:
                spectrogram[row, 5] = np.nan if fault == "nan" else np.inf
        assert _raised(
            lambda: window_lf_hf_ratios(spectrogram, freqs)
        ) == _raised(lambda: self._reference(spectrogram, freqs))

    @pytest.mark.parametrize(
        "case",
        ["short", "long", "nan", "one_bin", "two_dimensional", "nan_row0_short"],
    )
    def test_grid_errors_as_loop_raises_them(self, rng, case):
        freqs, spectrogram = self._spectrogram(rng)
        if case == "short":
            freqs = freqs[:-1]
        elif case == "long":
            freqs = np.append(freqs, 0.5)
        elif case == "nan":
            freqs = freqs.copy()
            freqs[4] = np.nan
        elif case == "one_bin":
            freqs, spectrogram = freqs[:1], spectrogram[:, :1]
        elif case == "two_dimensional":
            freqs = freqs[None, :]
        else:
            # A row's values are checked before the grid's size.
            spectrogram[0, 1] = np.nan
            freqs = freqs[:-1]
        assert _raised(
            lambda: window_lf_hf_ratios(spectrogram, freqs)
        ) == _raised(lambda: self._reference(spectrogram, freqs))


class TestPreprocessing:
    def test_clean_series_untouched(self, rng):
        series = _series(rng, jitter=0.01)
        report = filter_artifacts(series)
        assert report.fraction_corrected == 0.0
        np.testing.assert_allclose(report.series.intervals, series.intervals)

    def test_ectopic_detected_and_fixed(self, rng):
        rr = 0.85 + 0.01 * rng.standard_normal(100)
        rr[40] = 0.5   # early ectopic
        rr[41] = 1.2   # compensatory pause
        series = RRSeries.from_intervals(rr)
        mask = detect_ectopic_mask(series.intervals)
        assert mask[40] and mask[41]
        report = filter_artifacts(series)
        assert 40 in report.corrected_indices
        assert abs(report.series.intervals[40] - 0.85) < 0.05

    def test_too_many_artifacts_rejected(self, rng):
        rr = np.where(np.arange(60) % 2 == 0, 0.5, 1.2)
        series = RRSeries.from_intervals(rr + 0.01 * rng.random(60))
        with pytest.raises(SignalError, match="rejected"):
            filter_artifacts(series)

    def test_invalid_parameters(self, rng):
        series = _series(rng)
        with pytest.raises(SignalError):
            detect_ectopic_mask(series.intervals, window=4)
        with pytest.raises(SignalError):
            detect_ectopic_mask(series.intervals[:5], window=11)

    def test_filtering_reduces_hf_leakage(self, rng):
        """Removing ectopics lowers spurious broadband power."""
        from repro.lomb import FastLomb

        rr = 0.85 + 0.02 * np.sin(2 * np.pi * 0.1 * np.arange(200) * 0.85)
        rr = rr + 0.003 * rng.standard_normal(200)
        corrupted = rr.copy()
        for idx in (50, 90, 130):
            corrupted[idx] = 0.45
            corrupted[idx + 1] = 1.3
        clean = filter_artifacts(RRSeries.from_intervals(corrupted)).series
        engine = FastLomb(max_frequency=0.4)
        hf_dirty = engine.periodogram(
            *(lambda s: (s.times, s.intervals))(RRSeries.from_intervals(corrupted))
        ).band_power(0.15, 0.4)
        hf_clean = engine.periodogram(clean.times, clean.intervals).band_power(
            0.15, 0.4
        )
        assert hf_clean < hf_dirty


class TestDetection:
    def _spectrum(self, ratio):
        freqs = np.linspace(0.005, 0.45, 500)
        power = np.where((freqs >= 0.15) & (freqs < 0.40), 1.0, 0.0)
        lf_level = ratio * 0.25 / 0.11
        power += np.where((freqs >= 0.04) & (freqs < 0.15), lf_level, 0.0)
        return freqs, power

    def test_classify_arrhythmia(self):
        freqs, power = self._spectrum(ratio=0.45)
        detector = SinusArrhythmiaDetector()
        result = detector.classify_spectrum(power, frequencies=freqs)
        assert result.is_arrhythmia
        assert result.margin < 0

    def test_classify_healthy(self):
        freqs, power = self._spectrum(ratio=2.5)
        result = SinusArrhythmiaDetector().classify_spectrum(
            power, frequencies=freqs
        )
        assert not result.is_arrhythmia

    def test_agreement(self):
        detector = SinusArrhythmiaDetector()
        freqs, power = self._spectrum(0.4)
        a = detector.classify_spectrum(power, frequencies=freqs)
        freqs, power = self._spectrum(0.47)  # approximated ratio, same side
        b = detector.classify_spectrum(power, frequencies=freqs)
        assert detector.agreement(a, b)

    def test_classify_windows(self, rng):
        from repro.lomb import FastLomb, WelchLomb
        from repro.ecg import make_cohort, Condition

        patient = make_cohort(n_arrhythmia=1, n_healthy=0).patients[0]
        rr = patient.rr_series(duration=480.0)
        result = WelchLomb(FastLomb(max_frequency=0.45)).analyze(
            rr.times, rr.intervals
        )
        decision = SinusArrhythmiaDetector().classify_windows(result)
        assert decision.is_arrhythmia
        assert decision.window_ratios.size == result.n_windows

    def test_classify_ratios_decides_on_mean_of_own_copy(self):
        ratios = np.array([0.5, 0.7, 1.5])
        result = SinusArrhythmiaDetector().classify_ratios(ratios)
        assert result.ratio == float(ratios.mean())
        assert result.is_arrhythmia
        ratios[0] = 10.0
        assert result.window_ratios[0] == 0.5
        with pytest.raises(SignalError, match="no window ratios"):
            SinusArrhythmiaDetector().classify_ratios([])

    def test_threshold_validation(self):
        with pytest.raises(Exception):
            SinusArrhythmiaDetector(threshold=-1.0)
