"""Tests for chunk-size resolution in Fast-Lomb and the timing report."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.fleet.tuning import measure_chunk_windows
from repro.lomb import fast
from repro.perf import ExecutionContext, current_execution, execution


class TestChunkResolution:
    def test_explicit_pin_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK_WINDOWS", "64")
        with execution(chunk_windows=48):
            assert fast.get_batch_chunk_windows() == 48
        assert fast.get_batch_chunk_windows() == 64

    def test_pin_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutionContext(chunk_windows=0)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK_WINDOWS", "96")
        assert fast.get_batch_chunk_windows() == 96

    def test_env_override_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK_WINDOWS", "zero")
        with pytest.raises(ConfigurationError):
            fast.get_batch_chunk_windows()
        monkeypatch.setenv("REPRO_BATCH_CHUNK_WINDOWS", "-3")
        with pytest.raises(ConfigurationError):
            fast.get_batch_chunk_windows()

    def test_default_is_the_constant(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_CHUNK_WINDOWS", raising=False)
        assert fast.get_batch_chunk_windows() == fast.BATCH_CHUNK_WINDOWS
        assert fast.BATCH_CHUNK_WINDOWS == 256

    @pytest.mark.parametrize("candidate", [2.5, True, "64"])
    def test_probe_refuses_non_integer_candidates(self, candidate):
        with pytest.raises(ConfigurationError, match="integer"):
            measure_chunk_windows(candidates=(64, candidate))


@pytest.mark.slow
class TestMeasuredTuning:
    def test_probe_picks_a_candidate(self):
        tuning = measure_chunk_windows(
            workspace_size=256,
            candidates=(16, 64),
            n_windows=96,
            beats_per_window=40,
            repeats=1,
        )
        assert tuning.chunk_windows in (16, 64)
        assert set(tuning.timings) == {16, 64}
        assert all(seconds > 0 for seconds in tuning.timings.values())

    def test_probe_restores_pin(self):
        """The probe leaves the current execution context as it found it."""
        with execution(chunk_windows=123) as context:
            measure_chunk_windows(
                workspace_size=256,
                candidates=(16,),
                n_windows=32,
                beats_per_window=40,
                repeats=1,
            )
            assert current_execution() is context
            assert current_execution().chunk_windows == 123

    def test_probe_records_the_resolved_provider(self, monkeypatch):
        """Candidates run under the context's provider, else numpy."""
        monkeypatch.delenv("REPRO_FFT_PROVIDER", raising=False)
        probe = dict(
            workspace_size=256,
            candidates=(16,),
            n_windows=32,
            beats_per_window=40,
            repeats=1,
        )
        assert measure_chunk_windows(**probe).provider == "numpy"
        with execution(provider="explicit"):
            assert measure_chunk_windows(**probe).provider == "explicit"

    def test_probe_validates_candidates(self):
        with pytest.raises(ConfigurationError):
            measure_chunk_windows(candidates=())
        with pytest.raises(ConfigurationError):
            measure_chunk_windows(candidates=(0,))
