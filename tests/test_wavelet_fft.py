"""Tests for the DWT-based FFT kernel and its pruning modes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TransformError
from repro.ffts import (
    PruningSpec,
    TWIDDLE_SETS,
    WaveletFFT,
    split_radix_counts,
    static_twiddle_mask,
    twiddle_threshold_for_fraction,
    wavelet_fft,
)


def _random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestExactness:
    @pytest.mark.parametrize("n", [4, 8, 32, 256, 512])
    def test_exact_matches_numpy(self, n, paper_basis, rng):
        x = _random_complex(rng, n)
        plan = WaveletFFT(n, basis=paper_basis)
        np.testing.assert_allclose(plan.transform(x), np.fft.fft(x), atol=1e-8)

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_deeper_recursion_still_exact(self, levels, paper_basis, rng):
        n = 64
        x = _random_complex(rng, n)
        plan = WaveletFFT(n, basis=paper_basis, levels=levels)
        np.testing.assert_allclose(plan.transform(x), np.fft.fft(x), atol=1e-8)

    def test_real_input(self, paper_basis, rng):
        x = rng.standard_normal(128)
        plan = WaveletFFT(128, basis=paper_basis)
        np.testing.assert_allclose(plan.transform(x), np.fft.fft(x), atol=1e-8)

    def test_split_radix_backend_equivalent(self, rng):
        x = _random_complex(rng, 64)
        a = WaveletFFT(64, sub_backend="numpy").transform(x)
        b = WaveletFFT(64, sub_backend="split-radix").transform(x)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_convenience_wrapper(self, rng):
        x = _random_complex(rng, 32)
        np.testing.assert_allclose(wavelet_fft(x), np.fft.fft(x), atol=1e-8)

    def test_wrong_length_rejected(self, rng):
        plan = WaveletFFT(64)
        with pytest.raises(TransformError, match="does not match"):
            plan.transform(_random_complex(rng, 32))

    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            WaveletFFT(2)
        with pytest.raises(ConfigurationError):
            WaveletFFT(64, levels=0)
        with pytest.raises(ConfigurationError):
            WaveletFFT(64, levels=6)
        with pytest.raises(ConfigurationError):
            WaveletFFT(64, sub_backend="fftw")


class TestBandDrop:
    def test_band_drop_is_lowpass_projection(self, rng):
        """Eq. 7: the pruned transform equals F applied to the lowpass
        reconstruction of the signal (detail coefficients zeroed)."""
        from repro.wavelets import dwt_level, idwt_level

        n = 128
        x = rng.standard_normal(n)
        plan = WaveletFFT(n, pruning=PruningSpec.band_only())
        approx, detail = dwt_level(x, "haar")
        smoothed = idwt_level(approx, np.zeros_like(detail), "haar")
        np.testing.assert_allclose(
            plan.transform(x), np.fft.fft(smoothed), atol=1e-8
        )

    def test_band_drop_error_small_for_smooth_signals(self, rng):
        n = 256
        t = np.arange(n) / n
        smooth = np.sin(2 * np.pi * 3 * t) + 0.5 * np.cos(2 * np.pi * 7 * t)
        plan = WaveletFFT(n, pruning=PruningSpec.band_only())
        exact = np.fft.fft(smooth)
        approx = plan.transform(smooth)
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert rel < 0.08

    def test_bin_gains_are_a_read_only_plan_constant(self):
        plan = WaveletFFT(512, pruning=PruningSpec.band_only())
        gains = plan.bin_gains()
        assert plan.bin_gains() is gains
        assert not gains.flags.writeable
        attenuation = 0.5 * np.abs(plan._hl) ** 2
        want = 1.0 / np.maximum(attenuation, 1.0 / 16.0)
        assert gains.tobytes() == want.tobytes()
        assert WaveletFFT(512).bin_gains() is None

    def test_band_drop_error_large_for_alternating_signal(self):
        n = 64
        x = np.array([1.0, -1.0] * (n // 2))
        plan = WaveletFFT(n, pruning=PruningSpec.band_only())
        approx = plan.transform(x)
        # The alternating signal lives entirely in the highpass band.
        assert np.linalg.norm(approx) < 1e-8


class TestStaticTwiddlePruning:
    @pytest.mark.parametrize("set_index", [1, 2, 3])
    def test_pruned_fraction_matches_target(self, set_index):
        n = 512
        spec = PruningSpec(twiddle_fraction=TWIDDLE_SETS[set_index])
        plan = WaveletFFT(n, pruning=spec)
        kept = np.count_nonzero(plan._hl_keep) + np.count_nonzero(plan._hh_keep)
        expected_pruned = int(np.floor(TWIDDLE_SETS[set_index] * 2 * n))
        assert 2 * n - kept == expected_pruned

    def test_prunes_smallest_factors_first(self):
        plan = WaveletFFT(512, pruning=PruningSpec(twiddle_fraction=0.2))
        pruned_mags = np.abs(plan._hl[~plan._hl_keep])
        kept_mags = np.abs(plan._hl[plan._hl_keep])
        if pruned_mags.size and kept_mags.size:
            assert pruned_mags.max() <= kept_mags.min() + 1e-12

    def test_distortion_grows_with_pruning_on_average(self):
        """Average MSE over many signals grows with the pruned fraction.

        Per-signal monotonicity does not hold exactly (pruned terms can
        cancel part of the band-drop error), but in expectation each extra
        pruned factor removes |A_k L_k|^2 of signal energy, so the mean
        MSE must increase — which is the sense of the paper's Fig. 7.
        """
        n = 256
        fractions = (0.0, 0.2, 0.4, 0.6)
        plans = [
            WaveletFFT(n, pruning=PruningSpec(twiddle_fraction=f))
            for f in fractions
        ]
        totals = np.zeros(len(fractions))
        for trial in range(20):
            local = np.random.default_rng(trial)
            x = local.standard_normal(n)
            exact = np.fft.fft(x)
            for i, plan in enumerate(plans):
                err = plan.transform(x) - exact
                totals[i] += float(np.mean(np.abs(err) ** 2))
        assert totals[0] < 1e-12  # no pruning: exact transform
        assert totals[1] < totals[2] < totals[3]

    def test_mask_helper_exact_count(self):
        mags = np.linspace(0.01, 1.0, 100)
        keep = static_twiddle_mask(mags, 0.37)
        assert np.count_nonzero(~keep) == 37
        assert not keep[:37].any()

    def test_threshold_helper_monotone(self):
        mags = np.linspace(0.0, 1.5, 512)
        t20 = twiddle_threshold_for_fraction(mags, 0.2)
        t60 = twiddle_threshold_for_fraction(mags, 0.6)
        assert 0.0 < t20 < t60 < 1.5


class TestDynamicPruning:
    def test_dynamic_self_calibrating_fraction(self, rng):
        n = 256
        x = _random_complex(rng, n)
        spec = PruningSpec(band_drop=True, twiddle_fraction=0.4, dynamic=True)
        plan = WaveletFFT(n, pruning=spec)
        _, counts = plan.transform_with_counts(x)
        assert counts.compares > 0

    def test_dynamic_distortion_not_worse_than_static(self, rng):
        """Dynamic pruning drops the smallest |factor|*|data| products, so
        for the same pruned fraction its MSE should not exceed static's
        (the paper's Fig. 9 observation), on average over signals."""
        n = 256
        t = np.arange(n) / n
        static_err, dynamic_err = 0.0, 0.0
        for trial in range(8):
            local = np.random.default_rng(trial)
            x = np.sin(2 * np.pi * 4 * t) + 0.2 * local.standard_normal(n)
            exact = np.fft.fft(x)
            s_plan = WaveletFFT(
                n, pruning=PruningSpec(band_drop=True, twiddle_fraction=0.6)
            )
            d_plan = WaveletFFT(
                n,
                pruning=PruningSpec(
                    band_drop=True, twiddle_fraction=0.6, dynamic=True
                ),
            )
            static_err += float(np.mean(np.abs(s_plan.transform(x) - exact) ** 2))
            dynamic_err += float(np.mean(np.abs(d_plan.transform(x) - exact) ** 2))
        assert dynamic_err <= static_err * 1.05

    def test_fixed_threshold_respected(self, rng):
        n = 128
        x = _random_complex(rng, n)
        spec = PruningSpec(
            band_drop=True, twiddle_fraction=0.4, dynamic=True
        ).with_dynamic_threshold(1e9)
        plan = WaveletFFT(n, pruning=spec)
        # Threshold so high that every candidate term is pruned: the
        # dynamic result degenerates to the static set's result.
        static = WaveletFFT(
            n, pruning=PruningSpec(band_drop=True, twiddle_fraction=0.4)
        )
        np.testing.assert_allclose(
            plan.transform(x), static.transform(x), atol=1e-9
        )

    def test_zero_threshold_keeps_everything(self, rng):
        n = 128
        x = _random_complex(rng, n)
        spec = PruningSpec(
            band_drop=True, twiddle_fraction=0.4, dynamic=True
        ).with_dynamic_threshold(0.0)
        plan = WaveletFFT(n, pruning=spec)
        band_only = WaveletFFT(n, pruning=PruningSpec.band_only())
        np.testing.assert_allclose(
            plan.transform(x), band_only.transform(x), atol=1e-9
        )

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            PruningSpec(dynamic=False, dynamic_threshold=1.0)
        with pytest.raises(ConfigurationError):
            PruningSpec(twiddle_fraction=1.5)
        with pytest.raises(ConfigurationError):
            PruningSpec.paper_mode(4)
        with pytest.raises(ConfigurationError):
            PruningSpec(band_drop=True).with_dynamic_threshold(0.5)

    def test_describe_labels(self):
        assert PruningSpec.none().describe() == "exact"
        assert "band-drop" in PruningSpec.band_only().describe()
        label = PruningSpec.paper_mode(3, dynamic=True).describe()
        assert "60% twiddle" in label and "dynamic" in label


class TestProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        log_n=st.integers(min_value=2, max_value=8),
        basis=st.sampled_from(["haar", "db2", "db4"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_exactness_property(self, seed, log_n, basis):
        rng = np.random.default_rng(seed)
        n = 1 << log_n
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        plan = WaveletFFT(n, basis=basis)
        np.testing.assert_allclose(plan.transform(x), np.fft.fft(x), atol=1e-7)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        fraction=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_pruned_energy_never_exceeds_exact(self, seed, fraction):
        """Pruning only removes spectral contributions; with band drop the
        output energy of a lowpass-dominated signal cannot grow."""
        rng = np.random.default_rng(seed)
        n = 64
        x = np.cumsum(rng.standard_normal(n))  # brownian: lowpass heavy
        x -= x.mean()
        exact_plan = WaveletFFT(n)
        pruned_plan = WaveletFFT(
            n, pruning=PruningSpec(band_drop=True, twiddle_fraction=fraction)
        )
        exact_energy = float(np.sum(np.abs(exact_plan.transform(x)) ** 2))
        pruned_energy = float(np.sum(np.abs(pruned_plan.transform(x)) ** 2))
        assert pruned_energy <= exact_energy * (1.0 + 1e-9)
