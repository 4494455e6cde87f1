"""Tests for per-host chunk auto-tuning and its wiring into Fast-Lomb."""

from __future__ import annotations

import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.fleet.tuning import (
    DEFAULT_CHUNK_WINDOWS,
    MAX_CHUNK_WINDOWS,
    MIN_CHUNK_WINDOWS,
    _parse_cache_size,
    autotune_chunk_windows,
    chunk_windows_for_cache,
    detect_cache_bytes,
    measure_chunk_windows,
)
from repro.lomb import fast
from repro.perf import ExecutionContext, current_execution, execution


@pytest.fixture(autouse=True)
def _restore_chunk_state():
    """Keep the process-wide chunk tuning memo test-local."""
    tuned = dict(fast._chunk_tuned)
    yield
    fast._chunk_tuned.clear()
    fast._chunk_tuned.update(tuned)


class TestCacheDetection:
    def test_parse_cache_size_units(self):
        assert _parse_cache_size("48K") == 48 * 1024
        assert _parse_cache_size("12288K") == 12288 * 1024
        assert _parse_cache_size("1M") == 1024 * 1024
        assert _parse_cache_size("2G") == 2 * 1024**3
        assert _parse_cache_size("512") == 512
        assert _parse_cache_size("") is None
        assert _parse_cache_size("huge") is None
        assert _parse_cache_size("0K") is None

    def test_detect_cache_bytes_host(self):
        size = detect_cache_bytes()
        assert size is None or size > 0

    def test_detect_from_fake_sysfs(self, tmp_path):
        index0 = tmp_path / "index0"
        index0.mkdir()
        (index0 / "type").write_text("Instruction\n")
        (index0 / "size").write_text("32K\n")
        index1 = tmp_path / "index1"
        index1.mkdir()
        (index1 / "type").write_text("Unified\n")
        (index1 / "size").write_text("8M\n")
        assert detect_cache_bytes(tmp_path) == 8 * 1024 * 1024

    def test_detect_missing_root(self):
        assert detect_cache_bytes(pathlib.Path("/no/such/sysfs")) is None


class TestChunkModel:
    def test_power_of_two_and_clamped(self):
        for cache in (1 << 14, 1 << 20, 1 << 24, 1 << 30):
            chunk = chunk_windows_for_cache(512, cache)
            assert MIN_CHUNK_WINDOWS <= chunk <= MAX_CHUNK_WINDOWS
            assert chunk & (chunk - 1) == 0

    def test_monotonic_in_cache_size(self):
        chunks = [
            chunk_windows_for_cache(512, cache)
            for cache in (1 << 20, 1 << 23, 1 << 26)
        ]
        assert chunks == sorted(chunks)

    def test_larger_workspace_smaller_chunks(self):
        cache = 1 << 24
        assert chunk_windows_for_cache(2048, cache) <= chunk_windows_for_cache(
            256, cache
        )

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            chunk_windows_for_cache(512, 0)
        with pytest.raises(ConfigurationError):
            chunk_windows_for_cache(1, 1 << 20)

    def test_autotune_reports_source(self):
        tuning = autotune_chunk_windows(512)
        assert tuning.source in ("cache-model", "default")
        if tuning.source == "default":
            assert tuning.chunk_windows == DEFAULT_CHUNK_WINDOWS
        else:
            assert tuning.cache_bytes > 0


class TestChunkResolution:
    def test_explicit_pin_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK_WINDOWS", "64")
        with execution(chunk_windows=48):
            assert fast.get_batch_chunk_windows(512) == 48
        assert fast.get_batch_chunk_windows(512) == 64

    def test_pin_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutionContext(chunk_windows=0)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK_WINDOWS", "96")
        assert fast.get_batch_chunk_windows(512) == 96

    def test_env_override_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK_WINDOWS", "zero")
        with pytest.raises(ConfigurationError):
            fast.get_batch_chunk_windows(512)
        monkeypatch.setenv("REPRO_BATCH_CHUNK_WINDOWS", "-3")
        with pytest.raises(ConfigurationError):
            fast.get_batch_chunk_windows(512)

    def test_lazy_tuning_memoised(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_CHUNK_WINDOWS", raising=False)
        fast._chunk_tuned.clear()
        first = fast.get_batch_chunk_windows(512)
        assert fast._chunk_tuned[512] == first
        assert fast.get_batch_chunk_windows(512) == first
        assert first >= 1


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
        assert tuning.source == "measured"
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

    def test_probe_validates_candidates(self):
        with pytest.raises(ConfigurationError):
            measure_chunk_windows(candidates=())
        with pytest.raises(ConfigurationError):
            measure_chunk_windows(candidates=(0,))
