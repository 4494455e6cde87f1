"""The unified Engine facade: config serialization, resolution, execution.

Covers the PR 4 redesign contract:

* :class:`EngineConfig` round-trips losslessly through dict and JSON,
* :meth:`EngineConfig.resolve` follows the documented precedence chain
  — explicit argument → config field → env pin → constant default —
  with one test per layer, and two fresh interpreters with different
  ``HOME`` directories resolve alike and write nothing,
* :class:`Engine` produces results identical to the legacy entry
  points, owns a persistent fleet pool, and pins its resolved
  provider/chunk only for the duration of its own calls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConventionalPSA, Engine, EngineConfig, QualityScalablePSA
from repro.core.config import PSAConfig
from repro.ecg.database import make_cohort
from repro.engine import ResolvedExecution, build_system
from repro.engine.config import SYSTEM_KINDS
from repro.envpins import (
    CHUNK_ENV_VAR,
    PROVIDER_ENV_VAR,
    chunk_env_pin,
    provider_env_pin,
)
from repro.errors import ConfigurationError, SignalError
from repro.ffts.pruning import PruningSpec
from repro.fleet.runner import FleetRunner
from repro.hrv.bands import STANDARD_BANDS, FrequencyBand
from repro.perf import current_execution


@pytest.fixture(scope="module")
def recording():
    return make_cohort().get("rsa-00").rr_series(duration=480.0)


@pytest.fixture(scope="module")
def cohort_recordings():
    cohort = make_cohort()
    return [
        cohort.get("rsa-01").rr_series(duration=420.0),
        cohort.get("ctl-01").rr_series(duration=420.0),
    ]


def _configs():
    return [
        EngineConfig(),
        EngineConfig.for_mode("set3"),
        EngineConfig.for_mode("set1", dynamic=True),
        EngineConfig(
            system="quality-scalable",
            pruning=PruningSpec(
                band_drop=True,
                twiddle_fraction=0.4,
                dynamic=True,
                dynamic_threshold=0.125,
            ),
            psa=PSAConfig(fft_size=256, window_seconds=60.0, basis="db2"),
            provider="numpy",
            chunk_windows=64,
            jobs=2,
            bands=(
                FrequencyBand("LO", 0.0, 0.15),
                FrequencyBand("HI", 0.15, 0.4),
            ),
        ),
        EngineConfig(jobs=None, provider="explicit"),
    ]


class TestEngineConfigSerialization:
    @pytest.mark.parametrize("config", _configs())
    def test_dict_round_trip(self, config):
        assert EngineConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("config", _configs())
    def test_json_round_trip(self, config):
        assert EngineConfig.from_json(config.to_json()) == config

    def test_partial_dict_takes_defaults(self):
        config = EngineConfig.from_dict({"system": "quality-scalable"})
        assert config == EngineConfig(system="quality-scalable")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="chunk_window"):
            EngineConfig.from_dict({"chunk_window": 64})

    def test_pruning_must_be_a_mapping(self):
        with pytest.raises(ConfigurationError, match="pruning"):
            EngineConfig.from_dict({"pruning": [True, 0.2]})

    @pytest.mark.parametrize(
        "data",
        [
            {"psa": {"bogus": 1}},
            {"pruning": {"x": 1}},
            {"bands": [{"nm": 1}]},
            {"bands": 3},
            {"bands": [3]},
            {"jobs": "abc"},
            {"chunk_windows": "abc"},
            {"psa": {"fft_size": "abc"}},
        ],
        ids=repr,
    )
    def test_malformed_value_is_configuration_error(self, data):
        """A value of the wrong shape or type is a typed config error."""
        with pytest.raises(ConfigurationError, match="invalid engine config"):
            EngineConfig.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            EngineConfig.from_json("{not json")

    def test_from_file(self, tmp_path):
        config = EngineConfig.for_mode("set2", provider="numpy")
        path = tmp_path / "engine.json"
        path.write_text(config.to_json(), encoding="utf-8")
        assert EngineConfig.from_file(path) == config

    def test_bands_survive_round_trip_as_tuple(self):
        config = EngineConfig.from_json(EngineConfig().to_json())
        assert config.bands == STANDARD_BANDS
        assert isinstance(config.bands, tuple)


class TestEngineConfigValidation:
    def test_system_kinds(self):
        assert set(SYSTEM_KINDS) == {"conventional", "quality-scalable"}
        with pytest.raises(ConfigurationError, match="system"):
            EngineConfig(system="hybrid")

    def test_unknown_provider_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown FFT provider"):
            EngineConfig(provider="fftw")

    def test_provider_name_normalised(self):
        assert EngineConfig(provider="  NumPy ").provider == "numpy"

    def test_bad_chunk_rejected(self):
        with pytest.raises(ConfigurationError, match="chunk_windows"):
            EngineConfig(chunk_windows=0)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            EngineConfig(jobs=0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"jobs": 2.5},
            {"jobs": True},
            {"jobs": "2"},
            {"chunk_windows": True},
            {"chunk_windows": 64.0},
        ],
        ids=repr,
    )
    def test_non_integer_count_is_refused(self, fields):
        """A fractional, boolean or text count is refused, not truncated."""
        with pytest.raises(ConfigurationError, match="must be an integer"):
            EngineConfig(**fields)

    def test_from_dict_refuses_fractional_jobs(self):
        with pytest.raises(
            ConfigurationError, match="invalid engine config: jobs must be an"
        ):
            EngineConfig.from_dict({"jobs": 1.9})

    def test_boolean_worker_timeout_is_refused(self):
        with pytest.raises(ConfigurationError, match="worker_timeout"):
            EngineConfig(worker_timeout=True)

    def test_fractional_fft_size_is_refused(self):
        with pytest.raises(ConfigurationError, match="fft_size must be an"):
            PSAConfig(fft_size=512.7)

    @pytest.mark.parametrize(
        "value", [256, np.int64(256), np.int32(256), np.uint16(256)], ids=repr
    )
    def test_python_and_numpy_integers_pass(self, value):
        config = EngineConfig(
            jobs=value, chunk_windows=value, psa=PSAConfig(fft_size=value)
        )
        assert (config.jobs, config.chunk_windows) == (256, 256)
        assert type(config.jobs) is int and type(config.chunk_windows) is int
        assert config.psa.fft_size == 256

    def test_empty_bands_rejected(self):
        with pytest.raises(ConfigurationError, match="bands"):
            EngineConfig(bands=())

    def test_for_mode_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown pruning mode"):
            EngineConfig.for_mode("set9")

    def test_for_mode_exact_has_no_dynamic(self):
        with pytest.raises(ConfigurationError, match="dynamic"):
            EngineConfig.for_mode("exact", dynamic=True)

    def test_for_mode_mapping(self):
        assert EngineConfig.for_mode("exact").system == "conventional"
        set2 = EngineConfig.for_mode("set2")
        assert set2.system == "quality-scalable"
        assert set2.pruning == PruningSpec.paper_mode(2)
        dyn = EngineConfig.for_mode("set3", dynamic=True)
        assert dyn.pruning.dynamic


class TestResolvePrecedence:
    """One test per layer of the documented resolution chain."""

    def test_config_field_beats_env(self, monkeypatch):
        monkeypatch.setenv(PROVIDER_ENV_VAR, "explicit")
        monkeypatch.setenv(CHUNK_ENV_VAR, "128")
        config = EngineConfig(provider="numpy", chunk_windows=32, jobs=2)
        resolved = config.resolve()
        assert (resolved.provider, resolved.provider_source) == (
            "numpy", "config",
        )
        assert (resolved.chunk_windows, resolved.chunk_source) == (
            32, "config",
        )
        assert (resolved.jobs, resolved.jobs_source) == (2, "config")

    def test_env_pin_beats_autoprobe(self, monkeypatch):
        monkeypatch.setenv(PROVIDER_ENV_VAR, "explicit")
        monkeypatch.setenv(CHUNK_ENV_VAR, "96")
        resolved = EngineConfig().resolve()
        assert (resolved.provider, resolved.provider_source) == (
            "explicit", "env",
        )
        assert (resolved.chunk_windows, resolved.chunk_source) == (96, "env")

    def test_env_auto_is_an_unknown_provider(self, monkeypatch):
        monkeypatch.setenv(PROVIDER_ENV_VAR, "auto")
        with pytest.raises(ConfigurationError, match="unknown FFT provider"):
            EngineConfig().resolve()

    def test_env_pinned_unavailable_provider_falls_back_to_numpy(
        self, monkeypatch
    ):
        """Only the env layer falls back; a config field must be runnable."""
        from repro.ffts.providers import scipy_fft

        monkeypatch.setattr(scipy_fft, "scipy_available", lambda: False)
        monkeypatch.setenv(PROVIDER_ENV_VAR, "scipy")
        resolved = EngineConfig().resolve()
        assert (resolved.provider, resolved.provider_source) == (
            "numpy", "env",
        )
        with pytest.raises(ConfigurationError, match="not available"):
            EngineConfig(provider="scipy").resolve()

    def test_default_is_the_last_layer(self, monkeypatch):
        monkeypatch.delenv(PROVIDER_ENV_VAR, raising=False)
        monkeypatch.delenv(CHUNK_ENV_VAR, raising=False)
        resolved = EngineConfig().resolve()
        assert (resolved.provider, resolved.provider_source) == (
            "numpy", "default",
        )
        assert (resolved.chunk_windows, resolved.chunk_source) == (
            256, "default",
        )

    def test_fresh_processes_resolve_from_config_and_environment(
        self, tmp_path
    ):
        """Two interpreters with different homes resolve alike, writing
        nothing: no host state enters the resolution."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import json\n"
            "from repro import EngineConfig\n"
            "from repro.ffts.providers.registry import resolve_provider_name\n"
            "from repro.lomb.fast import get_batch_chunk_windows\n"
            "r = EngineConfig().resolve()\n"
            "print(json.dumps([r.provider, r.provider_source,"
            " r.chunk_windows, r.chunk_source, resolve_provider_name(),"
            " get_batch_chunk_windows()]))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        seen = []
        for name in ("home-a", "home-b"):
            home = tmp_path / name
            home.mkdir()
            env = {
                key: value
                for key, value in os.environ.items()
                if not key.startswith("REPRO_")
            }
            env.update(HOME=str(home), PYTHONPATH=str(src))
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            seen.append(json.loads(done.stdout))
            assert list(home.rglob("*")) == []
        assert seen[0] == seen[1] == [
            "numpy", "default", 256, "default", "numpy", 256,
        ]

    def test_jobs_cpu_count_layer(self):
        import os

        resolved = EngineConfig(jobs=None).resolve()
        assert (resolved.jobs, resolved.jobs_source) == (
            os.cpu_count() or 1, "cpu-count",
        )

    def test_resolved_is_a_record(self):
        resolved = EngineConfig(provider="numpy", chunk_windows=8).resolve()
        assert isinstance(resolved, ResolvedExecution)

    def test_pinned_config_resolves_to_itself(self, monkeypatch):
        """A pinned copy holds one resolution in its own fields."""
        monkeypatch.setenv(PROVIDER_ENV_VAR, "explicit")
        monkeypatch.setenv(CHUNK_ENV_VAR, "96")
        config = EngineConfig(jobs=None, workers=("10.0.0.1:9100",))
        resolved = config.resolve()
        pinned = config.pinned()
        assert pinned == config.pinned(resolved)
        assert (pinned.provider, pinned.chunk_windows, pinned.jobs) == (
            "explicit", 96, resolved.jobs,
        )
        assert pinned.workers == config.workers
        assert pinned.worker_timeout == resolved.worker_timeout
        monkeypatch.setenv(PROVIDER_ENV_VAR, "numpy")
        monkeypatch.setenv(CHUNK_ENV_VAR, "7")
        again = pinned.resolve()
        assert (again.provider, again.chunk_windows, again.jobs) == (
            "explicit", 96, resolved.jobs,
        )
        assert {
            again.provider_source, again.chunk_source, again.jobs_source,
            again.workers_source, again.worker_timeout_source,
        } == {"config"}
        assert pinned.pinned() == pinned


class TestEnvPins:
    """The single env-read module parses both pins consistently."""

    def test_unset_means_none(self, monkeypatch):
        monkeypatch.delenv(PROVIDER_ENV_VAR, raising=False)
        monkeypatch.delenv(CHUNK_ENV_VAR, raising=False)
        assert provider_env_pin() is None
        assert chunk_env_pin() is None

    def test_empty_means_none(self, monkeypatch):
        monkeypatch.setenv(PROVIDER_ENV_VAR, "   ")
        monkeypatch.setenv(CHUNK_ENV_VAR, " ")
        assert provider_env_pin() is None
        assert chunk_env_pin() is None

    def test_provider_normalised(self, monkeypatch):
        monkeypatch.setenv(PROVIDER_ENV_VAR, "  NumPy ")
        assert provider_env_pin() == "numpy"

    def test_chunk_validation(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV_VAR, "48")
        assert chunk_env_pin() == 48
        monkeypatch.setenv(CHUNK_ENV_VAR, "zero")
        with pytest.raises(ConfigurationError):
            chunk_env_pin()
        monkeypatch.setenv(CHUNK_ENV_VAR, "-3")
        with pytest.raises(ConfigurationError):
            chunk_env_pin()


class TestBuildSystem:
    def test_conventional(self):
        system = build_system(EngineConfig())
        assert isinstance(system, ConventionalPSA)

    def test_quality_scalable_applies_pruning(self):
        config = EngineConfig.for_mode("set3")
        system = build_system(config)
        assert isinstance(system, QualityScalablePSA)
        assert system.pruning == config.pruning

    def test_bands_installed(self):
        bands = (FrequencyBand("ALL", 0.0, 0.4),)
        system = build_system(EngineConfig(bands=bands))
        assert system.bands == bands

    def test_to_engine_config_bridges_back(self):
        system = QualityScalablePSA(pruning=PruningSpec.paper_mode(2))
        config = system.to_engine_config()
        assert config.system == "quality-scalable"
        assert config.pruning == PruningSpec.paper_mode(2)
        assert config.psa == system.config
        assert (config.jobs, config.provider) == (1, None)
        rebuilt = build_system(config)
        assert rebuilt.pruning == system.pruning

    def test_to_engine_config_conventional(self):
        assert ConventionalPSA().to_engine_config().system == "conventional"


class TestEngineExecution:
    def test_analyze_matches_legacy(self, recording):
        legacy = ConventionalPSA().analyze(recording, count_ops=True)
        with Engine(EngineConfig(provider="numpy")) as engine:
            facade = engine.analyze(recording, count_ops=True)
        assert np.array_equal(
            facade.welch.spectrogram, legacy.welch.spectrogram
        )
        assert facade.lf_hf == legacy.lf_hf
        assert facade.counts == legacy.counts
        assert facade.band_powers == legacy.band_powers

    def test_analyze_pruned_matches_legacy(self, recording):
        spec = PruningSpec.paper_mode(3)
        legacy = QualityScalablePSA(pruning=spec).analyze(
            recording, count_ops=True
        )
        with Engine(
            EngineConfig.for_mode("set3", provider="numpy")
        ) as engine:
            facade = engine.analyze(recording, count_ops=True)
        assert np.array_equal(
            facade.welch.spectrogram, legacy.welch.spectrogram
        )
        assert facade.counts == legacy.counts

    def test_analyze_requires_rrseries(self):
        with Engine() as engine:
            with pytest.raises(SignalError, match="RRSeries"):
                engine.analyze([0.8, 0.9, 1.0])

    def test_cohort_matches_per_recording(self, cohort_recordings):
        with Engine(EngineConfig(provider="numpy")) as engine:
            cohort = engine.analyze_cohort(
                cohort_recordings, count_ops=True
            )
            singles = [
                engine.analyze(rr, count_ops=True)
                for rr in cohort_recordings
            ]
        for got, want in zip(cohort, singles):
            assert np.array_equal(
                got.welch.spectrogram, want.welch.spectrogram
            )
            assert got.counts == want.counts
            assert got.lf_hf == want.lf_hf

    def test_fleet_pool_is_persistent(self, cohort_recordings):
        with Engine(EngineConfig(provider="numpy")) as engine:
            engine.analyze_cohort(cohort_recordings)
            runner = engine._fleet
            assert isinstance(runner, FleetRunner)
            assert runner.config == engine.config.pinned(engine.resolved)
            engine.analyze_cohort(cohort_recordings)
            assert engine._fleet is runner
        assert engine._fleet is None  # close() released it

    def test_pins_are_scoped_to_calls(self, recording):
        before = current_execution()
        with Engine(EngineConfig(provider="explicit")) as engine:
            engine.analyze(recording)
        assert current_execution().provider == before.provider
        assert current_execution().chunk_windows == before.chunk_windows

    def test_resolved_provider_respected(self, recording):
        with Engine(EngineConfig(provider="explicit")) as engine:
            assert engine.resolved.provider == "explicit"
            assert engine.resolved.provider_source == "config"

    def test_from_json(self, recording):
        config = EngineConfig.for_mode("band", provider="numpy")
        with Engine.from_json(config.to_json()) as engine:
            assert engine.config == config
            result = engine.analyze(recording)
        assert result.welch.n_windows > 0

    def test_from_file(self, tmp_path, recording):
        path = tmp_path / "cfg.json"
        path.write_text(EngineConfig().to_json(), encoding="utf-8")
        with Engine.from_file(path) as engine:
            assert engine.config == EngineConfig()

    def test_rejects_non_config(self):
        with pytest.raises(ConfigurationError, match="EngineConfig"):
            Engine({"system": "conventional"})

    def test_fleet_runner_from_config(self, cohort_recordings):
        config = EngineConfig(provider="numpy", chunk_windows=64, jobs=1)
        with FleetRunner(config) as runner:
            report = runner.run_report(
                [(rr.times, rr.intervals) for rr in cohort_recordings]
            )
        assert report.provider == "numpy"
        assert report.chunk_windows == 64
        assert report.n_jobs == 1
