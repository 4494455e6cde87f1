"""Batched execution must match the sequential oracle exactly.

The batched windowed-PSA engine (``transform_batch`` on the FFT
backends, ``FastLomb.periodogram_batch``, ``WelchLomb.analyze_windows(
batched=True)``) is required to reproduce the sequential per-window path:
``np.allclose`` on every spectrum and **exact equality** on executed
operation counts, across all pruning modes, ragged window sizes and both
Fast-Lomb scalings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SignalError
from repro.ffts import PruningSpec, SplitRadixFFT, WaveletFFT, split_radix_fft_batch
from repro.lomb import FastLomb, WelchLomb, extirpolate, extirpolate_batch

PRUNING_MODES = {
    "exact": PruningSpec.none(),
    "band-drop": PruningSpec.band_only(),
    "static-twiddle": PruningSpec(twiddle_fraction=0.4),
    "paper-mode2": PruningSpec.paper_mode(2),
    "dynamic-twiddle": PruningSpec(twiddle_fraction=0.3, dynamic=True),
    "paper-mode3-dynamic": PruningSpec.paper_mode(3, dynamic=True),
}


def _rr_series(rng, minutes=2.0, hf_amp=0.05, lf_amp=0.02, mean_rr=0.85):
    """Synthetic RR tachogram with LF (0.1 Hz) and HF (0.25 Hz) tones."""
    n = int(minutes * 60.0 / mean_rr) + 8
    beat_clock = np.cumsum(np.full(n, mean_rr))
    rr = (
        mean_rr
        + lf_amp * np.sin(2 * np.pi * 0.1 * beat_clock)
        + hf_amp * np.sin(2 * np.pi * 0.25 * beat_clock)
        + 0.003 * rng.standard_normal(n)
    )
    times = np.cumsum(rr)
    return times - times[0], rr


def _ragged_windows(rng, n_windows=7):
    """Windows of deliberately different durations and beat counts."""
    windows = []
    for i in range(n_windows):
        minutes = 1.5 + 0.25 * (i % 3)
        t, x = _rr_series(rng, minutes=minutes, mean_rr=0.7 + 0.05 * (i % 4))
        windows.append((t, x))
    return windows


class TestBackendBatchEquivalence:
    @pytest.mark.parametrize("use_numpy", [True, False])
    def test_split_radix_batch_matches_rows(self, rng, use_numpy):
        backend = SplitRadixFFT(64, use_numpy=use_numpy)
        x = rng.standard_normal((9, 64)) + 1j * rng.standard_normal((9, 64))
        batch, counts = backend.transform_batch_with_counts(x)
        assert len(counts) == 9
        for i in range(9):
            row, row_counts = backend.transform_with_counts(x[i])
            np.testing.assert_allclose(batch[i], row, rtol=1e-12, atol=1e-12)
            assert counts[i] == row_counts

    def test_split_radix_fft_batch_matches_numpy(self, rng):
        x = rng.standard_normal((5, 128)) + 1j * rng.standard_normal((5, 128))
        np.testing.assert_allclose(
            split_radix_fft_batch(x), np.fft.fft(x, axis=1), atol=1e-9
        )

    def test_split_radix_fft_batch_validates_like_sequential(self, rng):
        bad = rng.standard_normal((3, 32)).astype(complex)
        bad[1, 4] = np.nan
        with pytest.raises(SignalError):
            split_radix_fft_batch(bad)
        with pytest.raises(SignalError):
            split_radix_fft_batch(np.zeros(32, dtype=complex))

    @pytest.mark.parametrize("mode", sorted(PRUNING_MODES))
    @pytest.mark.parametrize("sub_backend", ["numpy", "split-radix"])
    def test_wavelet_batch_matches_rows(self, rng, mode, sub_backend):
        plan = WaveletFFT(
            64, pruning=PRUNING_MODES[mode], sub_backend=sub_backend
        )
        x = rng.standard_normal((8, 64)) + 1j * rng.standard_normal((8, 64))
        batch, counts = plan.transform_batch_with_counts(x)
        assert len(counts) == 8
        for i in range(8):
            row, row_counts = plan.transform_with_counts(x[i])
            np.testing.assert_allclose(batch[i], row, rtol=1e-12, atol=1e-12)
            assert counts[i] == row_counts, mode

    def test_wavelet_batch_multilevel(self, rng):
        plan = WaveletFFT(64, levels=2, pruning=PruningSpec.paper_mode(1))
        x = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        batch = plan.transform_batch(x)
        for i in range(4):
            np.testing.assert_allclose(
                batch[i], plan.transform(x[i]), rtol=1e-12, atol=1e-12
            )

    def test_batch_rejects_wrong_width(self, rng):
        plan = WaveletFFT(64)
        with pytest.raises(SignalError):
            plan.transform_batch(np.zeros((3, 32), dtype=complex))
        with pytest.raises(SignalError):
            SplitRadixFFT(64).transform_batch(np.zeros(64, dtype=complex))


class TestExtirpolateBatch:
    def test_rows_match_sequential_exactly(self, rng):
        rows, width, size = 6, 40, 128
        pos = rng.uniform(0, size, (rows, width))
        pos[1, 5:9] = np.floor(pos[1, 5:9])  # mix in exact cells
        vals = rng.standard_normal((rows, width))
        batch = extirpolate_batch(vals, pos, size)
        for i in range(rows):
            np.testing.assert_array_equal(
                batch[i], extirpolate(vals[i], pos[i], size)
            )

    def test_ragged_lengths_ignore_padding(self, rng):
        rows, width, size = 5, 30, 64
        lengths = np.array([30, 12, 25, 4, 18])
        pos = rng.uniform(0, size, (rows, width))
        vals = rng.standard_normal((rows, width))
        # garbage beyond each row's length must not leak through
        pos[0, :] = pos[0, :]
        batch = extirpolate_batch(vals, pos, size, lengths=lengths)
        for i, k in enumerate(lengths):
            np.testing.assert_array_equal(
                batch[i], extirpolate(vals[i, :k], pos[i, :k], size)
            )

    def test_invalid_inputs(self, rng):
        with pytest.raises(SignalError):
            extirpolate_batch(np.zeros((2, 4)), np.full((2, 4), 99.0), 32)
        with pytest.raises(SignalError):
            extirpolate_batch(np.zeros(4), np.zeros(4), 32)
        with pytest.raises(SignalError):
            extirpolate_batch(
                np.zeros((2, 4)), np.zeros((2, 4)), 32, lengths=np.array([5, 1])
            )


class TestFastLombBatch:
    @pytest.mark.parametrize("scaling", ["standard", "denormalized"])
    @pytest.mark.parametrize("mode", sorted(PRUNING_MODES))
    def test_ragged_windows_match_sequential(self, rng, scaling, mode):
        engine = FastLomb(
            backend=WaveletFFT(512, pruning=PRUNING_MODES[mode]),
            max_frequency=0.4,
            scaling=scaling,
        )
        windows = _ragged_windows(rng)
        batch = engine.periodogram_batch(windows, count_ops=True)
        assert len(batch) == len(windows)
        for (t, x), spectrum in zip(windows, batch):
            oracle = engine.periodogram(t, x, count_ops=True)
            np.testing.assert_array_equal(
                spectrum.frequencies, oracle.frequencies
            )
            np.testing.assert_allclose(
                spectrum.power, oracle.power, rtol=1e-9, atol=1e-12
            )
            assert spectrum.counts == oracle.counts
            assert spectrum.n_samples == oracle.n_samples
            assert np.isclose(spectrum.variance, oracle.variance, rtol=1e-12)

    def test_split_radix_backend(self, rng):
        engine = FastLomb(backend=SplitRadixFFT(512), max_frequency=0.4)
        windows = _ragged_windows(rng, n_windows=4)
        batch = engine.periodogram_batch(windows, count_ops=True)
        for (t, x), spectrum in zip(windows, batch):
            oracle = engine.periodogram(t, x, count_ops=True)
            np.testing.assert_allclose(spectrum.power, oracle.power, rtol=1e-9)
            assert spectrum.counts == oracle.counts

    def test_sequential_fallback_without_transform_batch(self, rng):
        class MinimalBackend:
            """Implements only the sequential protocol methods."""

            def __init__(self, n):
                self.n = n
                self._inner = SplitRadixFFT(n)

            def transform(self, x):
                return self._inner.transform(x)

            def transform_with_counts(self, x):
                return self._inner.transform_with_counts(x)

            def static_counts(self):
                return self._inner.static_counts()

        engine = FastLomb(backend=MinimalBackend(512), max_frequency=0.4)
        windows = _ragged_windows(rng, n_windows=3)
        batch = engine.periodogram_batch(windows)
        for (t, x), spectrum in zip(windows, batch):
            oracle = engine.periodogram(t, x)
            np.testing.assert_allclose(spectrum.power, oracle.power, rtol=1e-12)

    def test_count_ops_fallback_without_batch_counts(self, rng):
        class BatchOnlyBackend:
            """Implements transform_batch but not the counting variant."""

            def __init__(self, n):
                self.n = n
                self._inner = SplitRadixFFT(n)

            def transform(self, x):
                return self._inner.transform(x)

            def transform_with_counts(self, x):
                return self._inner.transform_with_counts(x)

            def static_counts(self):
                return self._inner.static_counts()

            def transform_batch(self, x):
                return self._inner.transform_batch(x)

        engine = FastLomb(backend=BatchOnlyBackend(512), max_frequency=0.4)
        windows = _ragged_windows(rng, n_windows=3)
        batch = engine.periodogram_batch(windows, count_ops=True)
        for (t, x), spectrum in zip(windows, batch):
            oracle = engine.periodogram(t, x, count_ops=True)
            np.testing.assert_allclose(spectrum.power, oracle.power, rtol=1e-12)
            assert spectrum.counts == oracle.counts

    def test_empty_batch(self):
        assert FastLomb().periodogram_batch([]) == []

    def test_batch_validation(self, rng):
        engine = FastLomb(max_frequency=0.4)
        t, x = _rr_series(rng)
        bad_t = t.copy()
        bad_t[3] = bad_t[2]  # not strictly increasing
        with pytest.raises(SignalError):
            engine.periodogram_batch([(bad_t, x)])
        with pytest.raises(SignalError):
            # exactly-representable constant -> exactly zero variance
            engine.periodogram_batch([(t, np.full_like(x, 1.0))])


class TestWelchBatchEquivalence:
    def _recording(self, rng, minutes=20.0):
        return _rr_series(rng, minutes=minutes)

    @pytest.mark.parametrize(
        "mode", ["exact", "paper-mode2", "paper-mode3-dynamic"]
    )
    def test_welch_matches_sequential(self, rng, mode):
        times, rr = self._recording(rng)
        analyzer = FastLomb(
            backend=WaveletFFT(512, pruning=PRUNING_MODES[mode]),
            max_frequency=0.4,
            scaling="denormalized",
        )
        welch = WelchLomb(analyzer)
        seq = welch.analyze_windows(times, rr, count_ops=True, batched=False)
        bat = welch.analyze_windows(times, rr, count_ops=True, batched=True)
        assert bat.n_windows == seq.n_windows
        assert bat.skipped_windows == seq.skipped_windows
        np.testing.assert_array_equal(bat.frequencies, seq.frequencies)
        np.testing.assert_allclose(
            bat.spectrogram, seq.spectrogram, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(bat.averaged, seq.averaged, rtol=1e-9)
        np.testing.assert_allclose(bat.window_times, seq.window_times)
        assert bat.counts == seq.counts
        for b, s in zip(bat.window_spectra, seq.window_spectra):
            assert b.counts == s.counts

    def test_welch_split_radix_matches_sequential(self, rng):
        times, rr = self._recording(rng, minutes=12.0)
        welch = WelchLomb(FastLomb(max_frequency=0.4, scaling="denormalized"))
        seq = welch.analyze_windows(times, rr, count_ops=True, batched=False)
        bat = welch.analyze_windows(times, rr, count_ops=True, batched=True)
        np.testing.assert_allclose(
            bat.spectrogram, seq.spectrogram, rtol=1e-9, atol=1e-12
        )
        assert bat.counts == seq.counts

    def test_default_analyze_is_batched_and_consistent(self, rng):
        times, rr = self._recording(rng, minutes=12.0)
        welch = WelchLomb(FastLomb(max_frequency=0.4, scaling="denormalized"))
        default = welch.analyze(times, rr)
        seq = welch.analyze_windows(times, rr, batched=False)
        np.testing.assert_allclose(
            default.spectrogram, seq.spectrogram, rtol=1e-9, atol=1e-12
        )
