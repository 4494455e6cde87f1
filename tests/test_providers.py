"""Tests for the multi-provider FFT execution layer.

Covers the registry (env pin, explicit pin, unknown-provider errors,
scipy-missing fallback, autoselect memoisation), numerical equivalence
of every provider against the explicit split-radix oracle (ragged
windows, both scalings, all wavelet pruning modes — with identical
modelled operation counts), the fused real-input path, uniform window
layouts, and provider pinning across the fleet engine (sharded results
bit-identical to single-process ones under every provider).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecg.rr_synthesis import TachogramSpec, generate_tachogram
from repro.engine import Engine, EngineConfig
from repro.errors import ConfigurationError, TransformError
from repro.ffts import plancache
from repro.ffts.backends import SplitRadixFFT
from repro.ffts.providers import registry
from repro.ffts.providers.explicit import ExplicitProvider
from repro.ffts.providers.numpy_fft import NumpyFFTProvider
from repro.ffts.pruning import PruningSpec
from repro.ffts.wavelet_fft import WaveletFFT
from repro.fleet import FleetRunner
from repro.lomb.fast import FastLomb
from repro.lomb.welch import WelchLomb
from repro.perf import ExecutionContext, current_execution, execution

AVAILABLE = [
    name
    for name, available in registry.available_providers().items()
    if available
]
FAST_PROVIDERS = [name for name in AVAILABLE if name != "explicit"]


def _ragged_windows(rng, n_windows=6):
    """Synthetic irregular windows with varying beat counts.

    The windows lie back to back in one recording: returns ``(times,
    values, spans)`` and the windows as ``(times, values)`` slices of
    it.
    """
    beats = [90 + 13 * i for i in range(n_windows)]
    intervals = 0.85 + 0.05 * rng.standard_normal(sum(beats))
    times = np.cumsum(np.abs(intervals) + 0.3)
    edges = np.cumsum([0, *beats]).tolist()
    spans = list(zip(edges[:-1], edges[1:]))
    windows = [(times[lo:hi], intervals[lo:hi]) for lo, hi in spans]
    return (times, intervals, spans), windows


class TestRegistry:
    def test_builtin_providers_registered(self):
        names = registry.provider_names()
        assert ("explicit", "numpy", "scipy") == names[:3]
        availability = registry.available_providers()
        assert availability["explicit"] is True
        assert availability["numpy"] is True

    def test_unknown_provider_errors(self):
        with pytest.raises(ConfigurationError, match="unknown FFT provider"):
            registry.get_provider("fftw")
        with pytest.raises(ConfigurationError, match="unknown FFT provider"):
            registry.resolve_provider_name("fftw")
        with pytest.raises(ConfigurationError, match="unknown FFT provider"):
            ExecutionContext(provider="fftw")

    def test_get_provider_returns_cached_handle(self):
        first = registry.get_provider("numpy")
        assert registry.get_provider("numpy") is first
        assert plancache.plan_cache_stats()["provider_plans"] >= 1

    def test_env_pin(self, monkeypatch):
        monkeypatch.setenv(registry.PROVIDER_ENV_VAR, "explicit")
        assert registry.resolve_provider_name() == "explicit"

    def test_env_unknown_errors(self, monkeypatch):
        monkeypatch.setenv(registry.PROVIDER_ENV_VAR, "fftw")
        with pytest.raises(ConfigurationError, match="unknown FFT provider"):
            registry.resolve_provider_name()

    def test_env_auto_runs_probe(self, monkeypatch):
        monkeypatch.setenv(registry.PROVIDER_ENV_VAR, "auto")
        name = registry.resolve_provider_name(None, 64)
        assert name in AVAILABLE

    def test_explicit_pin_beats_env(self, monkeypatch):
        monkeypatch.setenv(registry.PROVIDER_ENV_VAR, "numpy")
        with execution(provider="explicit"):
            assert registry.resolve_provider_name() == "explicit"

    def test_caller_pin_beats_everything(self, monkeypatch):
        monkeypatch.setenv(registry.PROVIDER_ENV_VAR, "numpy")
        with execution(provider="numpy"):
            assert registry.resolve_provider_name("explicit") == "explicit"

    def test_scipy_missing_fallback(self, monkeypatch):
        from repro.ffts.providers import scipy_fft

        monkeypatch.setattr(scipy_fft, "scipy_available", lambda: False)
        assert registry.available_providers()["scipy"] is False
        # explicit requests error out ...
        with pytest.raises(ConfigurationError, match="not available"):
            registry.get_provider("scipy")
        with pytest.raises(ConfigurationError, match="cannot pin"):
            ExecutionContext(provider="scipy")
        # ... but the resolution chain falls back to numpy silently
        monkeypatch.setenv(registry.PROVIDER_ENV_VAR, "scipy")
        assert registry.resolve_provider_name() == "numpy"

    def test_autoselect_memoised(self):
        first = registry.autoselect(64)
        assert registry.autoselect(64) is first
        assert first.provider in AVAILABLE
        # The explicit oracle is never a probe candidate (it could only
        # win through timing noise, and timing it dominates probe cost).
        assert first.provider != "explicit"
        if first.source == "measured":
            assert set(first.timings) == set(AVAILABLE) - {"explicit"}

    def test_autoselect_rounds_odd_workspace_sizes(self):
        # The explicit provider only transforms powers of two; an odd
        # probe size (the CLI accepts any integer) must not crash it.
        choice = registry.autoselect(500)
        assert choice.workspace_size == 256
        assert choice.provider in AVAILABLE

    def test_pinned_unavailable_provider_fails_at_planning(self, monkeypatch):
        from repro.ffts.providers import scipy_fft

        monkeypatch.setattr(scipy_fft, "scipy_available", lambda: False)
        plancache.invalidate_provider_plan("scipy")
        with pytest.raises(ConfigurationError, match="not available"):
            SplitRadixFFT(64, provider="scipy")
        with pytest.raises(ConfigurationError, match="not available"):
            WaveletFFT(64, sub_backend="scipy")

    def test_register_provider_extension_point(self):
        registry.register_provider(
            "dummy",
            factory=NumpyFFTProvider,
            available=lambda: True,
            description="test double",
        )
        try:
            assert "dummy" in registry.provider_names()
            assert registry.resolve_provider_name("dummy") == "dummy"
            assert isinstance(registry.get_provider("dummy"), NumpyFFTProvider)
        finally:
            del registry._REGISTRY["dummy"]
            registry.clear_provider_state()
            plancache.clear_plan_caches()

    def test_register_provider_normalises_and_replaces(self):
        registry.register_provider(
            " Dummy ", factory=NumpyFFTProvider, available=lambda: True
        )
        try:
            assert "dummy" in registry.provider_names()
            assert isinstance(registry.get_provider("DUMMY"), NumpyFFTProvider)
            # re-registration must evict the cached handle
            registry.register_provider(
                "dummy", factory=ExplicitProvider, available=lambda: True
            )
            assert isinstance(registry.get_provider("dummy"), ExplicitProvider)
        finally:
            del registry._REGISTRY["dummy"]
            registry.clear_provider_state()
            plancache.clear_plan_caches()


class TestProviderNumerics:
    @pytest.mark.parametrize("name", AVAILABLE)
    def test_fft_matches_oracle(self, rng, name):
        provider = registry.get_provider(name)
        oracle = ExplicitProvider()
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        np.testing.assert_allclose(
            provider.fft(x), oracle.fft(x), rtol=1e-10, atol=1e-10
        )
        batch = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
        np.testing.assert_allclose(
            provider.fft_batch(batch),
            oracle.fft_batch(batch),
            rtol=1e-10,
            atol=1e-10,
        )

    @pytest.mark.parametrize("name", AVAILABLE)
    def test_rfft_is_half_spectrum(self, rng, name):
        provider = registry.get_provider(name)
        x = rng.standard_normal(64)
        np.testing.assert_allclose(
            provider.rfft(x), provider.fft(x)[:33], rtol=1e-10, atol=1e-10
        )
        batch = rng.standard_normal((4, 64))
        np.testing.assert_allclose(
            provider.rfft_batch(batch),
            provider.fft_batch(batch.astype(np.complex128))[:, :33],
            rtol=1e-10,
            atol=1e-10,
        )

    def test_warm_is_idempotent(self):
        for name in AVAILABLE:
            provider = registry.get_provider(name)
            provider.warm(64)
            provider.warm(64)


class TestBackendDispatch:
    def test_use_numpy_false_pins_explicit(self):
        backend = SplitRadixFFT(64, use_numpy=False)
        assert backend.provider == "explicit"

    def test_provider_pin_overrides_process_default(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        pinned = SplitRadixFFT(64, provider="explicit")
        oracle = ExplicitProvider().fft(x)
        with execution(provider="numpy"):
            np.testing.assert_array_equal(pinned.transform(x), oracle)

    @pytest.mark.parametrize("name", AVAILABLE)
    def test_dispatch_follows_process_pin(self, rng, name):
        """Dispatch follows the current execution context's provider."""
        backend = SplitRadixFFT(64)
        x = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        with execution(provider=name):
            expected = registry.get_provider(name).fft_batch(x)
            np.testing.assert_array_equal(backend.transform_batch(x), expected)

    def test_rfft_validates_shape(self, rng):
        backend = SplitRadixFFT(64)
        with pytest.raises(TransformError):
            backend.rfft(rng.standard_normal(32))
        with pytest.raises(TransformError):
            backend.rfft_batch(rng.standard_normal((3, 32)))

    def test_wavelet_sub_backend_provider_pin(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        reference = WaveletFFT(64, sub_backend="split-radix").transform(x)
        for sub in ("auto", "numpy", "explicit", *FAST_PROVIDERS):
            out = WaveletFFT(64, sub_backend=sub).transform(x)
            np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-9)

    def test_wavelet_sub_backend_name_really_pins(self, rng):
        # A provider-name sub_backend must not follow the context:
        # pinning the context to explicit while the plan pins numpy has
        # to keep running numpy (bit-identical to numpy sub-FFTs).
        x = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        pinned = WaveletFFT(64, sub_backend="numpy")
        with execution(provider="numpy"):
            expected = pinned.transform_batch(x)
        with execution(provider="explicit"):
            np.testing.assert_array_equal(pinned.transform_batch(x), expected)

    def test_wavelet_auto_follows_process_pin(self, rng):
        """An ``auto`` sub-backend follows the current context's provider."""
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        auto = WaveletFFT(64)  # sub_backend="auto"
        assert auto.sub_backend == "auto"
        with execution(provider="explicit"):
            oracle = WaveletFFT(64, sub_backend="split-radix").transform(x)
            np.testing.assert_array_equal(auto.transform(x), oracle)

    def test_wavelet_unknown_sub_backend(self):
        with pytest.raises(ConfigurationError, match="sub_backend"):
            WaveletFFT(64, sub_backend="fftw")


PRUNING_MODES = [
    PruningSpec.none(),
    PruningSpec.band_only(),
    PruningSpec.paper_mode(1),
    PruningSpec.paper_mode(2),
    PruningSpec.paper_mode(3),
    PruningSpec.paper_mode(3, dynamic=True),
]


class TestPipelineEquivalence:
    """Every provider must reproduce the explicit oracle end-to-end."""

    @pytest.mark.parametrize("scaling", ["standard", "denormalized"])
    @pytest.mark.parametrize("name", FAST_PROVIDERS)
    def test_ragged_windows_both_scalings(self, rng, name, scaling):
        recording, _ = _ragged_windows(rng)
        analyzer = FastLomb(scaling=scaling)
        with execution(provider="explicit"):
            oracle = analyzer.periodogram_spans(*recording, count_ops=True)
        with execution(provider=name):
            spectra = analyzer.periodogram_spans(*recording, count_ops=True)
        for got, want in zip(spectra, oracle):
            np.testing.assert_allclose(
                got.power, want.power, rtol=1e-7, atol=1e-12
            )
            np.testing.assert_array_equal(got.frequencies, want.frequencies)
            assert got.counts == want.counts

    @pytest.mark.parametrize("spec", PRUNING_MODES, ids=lambda s: s.describe())
    @pytest.mark.parametrize("name", FAST_PROVIDERS)
    def test_wavelet_pruning_modes(self, rng, name, spec):
        recording, _ = _ragged_windows(rng, n_windows=4)
        analyzer = FastLomb(
            backend=WaveletFFT(512, pruning=spec), scaling="denormalized"
        )
        with execution(provider="explicit"):
            oracle = analyzer.periodogram_spans(*recording, count_ops=True)
        with execution(provider=name):
            spectra = analyzer.periodogram_spans(*recording, count_ops=True)
        for got, want in zip(spectra, oracle):
            np.testing.assert_allclose(
                got.power, want.power, rtol=1e-6, atol=1e-12
            )
            assert got.counts == want.counts


class TestFusedRealPath:
    def test_auto_enabled_for_plain_fft_backend(self):
        assert FastLomb().fused_real is True

    def test_auto_disabled_for_band_drop_backend(self):
        backend = WaveletFFT(512, pruning=PruningSpec.band_only())
        assert FastLomb(backend=backend).fused_real is False

    def test_fused_matches_packed_path(self, rng):
        """The fused rfft path agrees with the unpruned packed wavelet path.

        Their modelled op counts differ by design (the wavelet kernel is
        costed as the paper's wavelet FFT), so only spectra compare.
        """
        recording, _ = _ragged_windows(rng)
        fused = FastLomb(scaling="denormalized")
        packed = FastLomb(backend=WaveletFFT(512), scaling="denormalized")
        assert fused.fused_real and not packed.fused_real
        a = fused.periodogram_spans(*recording, count_ops=True)
        b = packed.periodogram_spans(*recording, count_ops=True)
        for got, want in zip(a, b):
            np.testing.assert_allclose(
                got.power, want.power, rtol=1e-9, atol=1e-12
            )

    def test_sequential_fused_matches_batched(self, rng):
        recording, windows = _ragged_windows(rng, n_windows=3)
        analyzer = FastLomb(scaling="standard")
        batched = analyzer.periodogram_spans(*recording, count_ops=True)
        for (t, x), from_batch in zip(windows, batched):
            single = analyzer.periodogram(t, x, count_ops=True)
            np.testing.assert_allclose(
                single.power, from_batch.power, rtol=1e-12, atol=1e-12
            )
            assert single.counts == from_batch.counts


class TestUniformMatrixPath:
    """Uniform layouts: equal beat counts at a constant stride."""

    def _uniform_recording(self):
        t = np.arange(0.0, 1500.0, 0.5)
        x = (
            0.9
            + 0.05 * np.sin(2 * np.pi * 0.1 * t)
            + 0.02 * np.sin(2 * np.pi * 0.25 * t)
        )
        return t, x

    def test_welch_analyze_uses_matrix_path_consistently(self):
        t, x = self._uniform_recording()
        welch = WelchLomb(FastLomb(scaling="denormalized"))
        batched = welch.analyze_windows(t, x, batched=True)
        sequential = welch.analyze_windows(t, x, batched=False)
        np.testing.assert_allclose(
            batched.spectrogram,
            sequential.spectrogram,
            rtol=1e-9,
            atol=1e-12,
        )


class TestFleetProviderPinning:
    def test_report_records_resolved_provider(self, monkeypatch):
        monkeypatch.setenv(registry.PROVIDER_ENV_VAR, "numpy")
        rr = generate_tachogram(TachogramSpec(seed=3), 900.0)
        report = FleetRunner(EngineConfig(jobs=1)).run_report([rr])
        assert report.provider == "numpy"

    def test_in_process_pin_restored(self):
        rr = generate_tachogram(TachogramSpec(seed=3), 900.0)
        runner = FleetRunner(EngineConfig(jobs=1, provider="explicit"))
        report = runner.run_report([rr])
        assert report.provider == "explicit"
        assert current_execution().provider is None

    @pytest.mark.parametrize("name", AVAILABLE)
    def test_in_process_matches_direct_analyze(self, name):
        rr = generate_tachogram(TachogramSpec(seed=5), 900.0)
        runner = FleetRunner(EngineConfig(jobs=1, provider=name))
        welch = runner.welch
        fleet = runner.run([rr], count_ops=True)[0]
        with execution(provider=name):
            single = welch.analyze(rr.times, rr.intervals, count_ops=True)
        np.testing.assert_array_equal(fleet.spectrogram, single.spectrogram)
        assert fleet.counts == single.counts

    @pytest.mark.slow
    @pytest.mark.parametrize("name", FAST_PROVIDERS)
    def test_sharded_bit_identical_per_provider(self, name, monkeypatch):
        monkeypatch.setattr(
            "repro.fleet.runner.DEFAULT_MIN_WINDOWS_PER_SHARD", 2
        )
        recordings = [
            generate_tachogram(TachogramSpec(seed=seed), 900.0)
            for seed in (11, 12)
        ]
        config = EngineConfig(provider=name)
        single = FleetRunner(config.replace(jobs=1)).run(
            recordings, count_ops=True
        )
        with FleetRunner(config.replace(jobs=2)) as runner:
            sharded = runner.run(recordings, count_ops=True)
        for a, b in zip(sharded, single):
            np.testing.assert_array_equal(a.spectrogram, b.spectrogram)
            np.testing.assert_array_equal(a.averaged, b.averaged)
            assert a.counts == b.counts

    @pytest.mark.slow
    def test_uniform_recording_sharded_bit_identical(self, monkeypatch):
        # Uniformly-sampled recording (equal beat counts at a constant
        # stride): the single-process path and every shard must agree
        # bit-for-bit.
        monkeypatch.setattr(
            "repro.fleet.runner.DEFAULT_MIN_WINDOWS_PER_SHARD", 4
        )
        t = np.arange(0.0, 3600.0, 0.5)
        x = 0.9 + 0.05 * np.sin(2 * np.pi * 0.1 * t)
        single_runner = FleetRunner(EngineConfig(jobs=1))
        welch = single_runner.welch
        single = single_runner.run([(t, x)])[0]
        direct = welch.analyze(t, x)
        with FleetRunner(EngineConfig(jobs=2)) as runner:
            sharded = runner.run([(t, x)])[0]
        np.testing.assert_array_equal(sharded.spectrogram, single.spectrogram)
        np.testing.assert_array_equal(sharded.spectrogram, direct.spectrogram)

    def test_analyze_cohort_provider_passthrough(self):
        rr = generate_tachogram(TachogramSpec(seed=9), 600.0)
        with Engine(EngineConfig(provider="numpy")) as engine:
            results = engine.analyze_cohort([rr])
        assert len(results) == 1
        wavelet_config = EngineConfig(
            system="quality-scalable",
            pruning=PruningSpec.paper_mode(3),
            provider="explicit",
        )
        with Engine(wavelet_config) as engine:
            wavelet = engine.analyze_cohort([rr])
        assert len(wavelet) == 1


class TestAutoselectDiskCache:
    """Persistence of measured autoselect choices across processes."""

    @pytest.fixture(autouse=True)
    def _isolated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        registry.clear_provider_state()
        yield
        registry.clear_provider_state()

    def test_measured_choice_is_persisted_and_read_back(self, tmp_path):
        import json
        import os

        first = registry.autoselect(512)
        if first.source != "measured":
            pytest.skip("only one provider available: nothing persisted")
        path = registry.autoselect_cache_path()
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        assert first.provider in data.values()
        # A "new process" (cleared memo) resolves from disk, no probe.
        registry.clear_provider_state()
        second = registry.autoselect(512)
        assert second.source == "disk-cache"
        assert second.provider == first.provider
        assert second.timings is None

    def test_env_auto_bypasses_disk_cache(self, monkeypatch):
        first = registry.autoselect(512)
        if first.source != "measured":
            pytest.skip("only one provider available: nothing persisted")
        registry.clear_provider_state()
        monkeypatch.setenv("REPRO_FFT_PROVIDER", "auto")
        forced = registry.autoselect(512)
        assert forced.source == "measured"

    def test_corrupt_cache_file_is_tolerated(self):
        import os

        path = registry.autoselect_cache_path()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json{")
        choice = registry.autoselect(512)
        assert choice.source in ("measured", "fallback")

    def test_clear_disk_cache_removes_file(self):
        import os

        first = registry.autoselect(512)
        if first.source != "measured":
            pytest.skip("only one provider available: nothing persisted")
        assert os.path.exists(registry.autoselect_cache_path())
        registry.clear_autoselect_disk_cache()
        assert not os.path.exists(registry.autoselect_cache_path())

    def test_key_carries_machine_identity(self):
        from repro.ffts.providers.registry import _disk_cache_key

        key = _disk_cache_key(512)
        assert f"numpy{np.__version__}" in key
        assert key.endswith("|ws512")
