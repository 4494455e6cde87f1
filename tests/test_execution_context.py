"""The execution context: one ContextVar, scoped per thread.

Provider, chunk size, arena and profiler travel in one immutable
:class:`~repro.perf.ExecutionContext`.  These tests pin down what that
buys: engines driven from two threads at once keep their own settings
(bit-identical spectra, private profilers), every scope restores the
context it replaced, and a fleet pool process runs under the context
its initializer set from the parent's resolved settings.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro import Engine, EngineConfig
from repro.ecg.rr_synthesis import TachogramSpec, generate_tachogram
from repro.envpins import CHUNK_ENV_VAR, PROVIDER_ENV_VAR
from repro.errors import ConfigurationError
from repro.perf import (
    ExecutionContext,
    StageProfiler,
    WorkspaceArena,
    current_execution,
    execution,
    get_active_profiler,
)

#: Providers whose FFTs round differently, so a leaked pin shows in bits.
PROVIDERS = ("explicit", "numpy")


def _run_together(jobs) -> None:
    """Run each callable on its own thread, all released at once."""
    barrier = threading.Barrier(len(jobs))
    errors: list[BaseException] = []

    def run(job):
        barrier.wait()
        try:
            job()
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(job,)) for job in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


class TestConcurrentEngines:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_threads_stay_bit_identical(self, seed):
        rr = generate_tachogram(TachogramSpec(seed=seed), 900.0)
        engines = {p: Engine(EngineConfig(provider=p)) for p in PROVIDERS}
        alone = {
            p: engine.analyze(rr).welch.spectrogram.tobytes()
            for p, engine in engines.items()
        }
        together: dict[str, list[bytes]] = {p: [] for p in PROVIDERS}

        def analyses(provider):
            def job():
                for _ in range(4):
                    result = engines[provider].analyze(rr)
                    together[provider].append(
                        result.welch.spectrogram.tobytes()
                    )

            return job

        _run_together([analyses(p) for p in PROVIDERS])
        for provider in PROVIDERS:
            assert len(together[provider]) == 4
            assert all(run == alone[provider] for run in together[provider])

    def test_profiler_sees_only_its_own_thread(self):
        rr = generate_tachogram(TachogramSpec(seed=4), 900.0)
        solo = Engine(EngineConfig(provider="numpy", profile=True))
        solo.analyze(rr)
        per_call = {
            stage: row["calls"]
            for stage, row in solo.profiler.report().items()
        }
        profiled = Engine(EngineConfig(provider="numpy", profile=True))
        other = Engine(EngineConfig(provider="explicit"))

        def profiled_job():
            for _ in range(4):
                profiled.analyze(rr)

        def other_job():
            for _ in range(8):
                other.analyze(rr)

        _run_together([profiled_job, other_job])
        calls = {
            stage: row["calls"]
            for stage, row in profiled.profiler.report().items()
        }
        assert calls == {stage: 4 * n for stage, n in per_call.items()}
        assert current_execution() == ExecutionContext()
        assert get_active_profiler() is None


class TestScope:
    def test_restores_previous_context_also_after_an_exception(self):
        outer = ExecutionContext(provider="numpy", chunk_windows=8)
        with execution(outer) as entered:
            assert entered is outer
            assert current_execution() is outer
            with pytest.raises(RuntimeError):
                with execution(chunk_windows=4) as inner:
                    assert current_execution() is inner
                    raise RuntimeError("inside the inner scope")
            assert current_execution() is outer
        assert current_execution() == ExecutionContext()

    def test_derived_scope_keeps_unnamed_fields(self):
        arena, profiler = WorkspaceArena(), StageProfiler()
        with execution(arena=arena, profiler=profiler):
            with execution(provider="numpy", chunk_windows=16) as derived:
                assert derived == ExecutionContext(
                    "numpy", 16, arena, profiler
                )

    def test_fields_are_validated(self):
        with pytest.raises(ConfigurationError, match="unknown FFT provider"):
            ExecutionContext(provider="fftw")
        with pytest.raises(ConfigurationError, match="chunk size"):
            ExecutionContext(chunk_windows=0)
        with pytest.raises(ConfigurationError, match="chunk size"):
            with execution(chunk_windows=-1):
                pass
        assert current_execution() == ExecutionContext()

    @pytest.mark.parametrize("chunk", [2.5, True, "64"])
    def test_chunk_windows_must_be_an_integer(self, chunk):
        with pytest.raises(ConfigurationError, match="integer"):
            ExecutionContext(chunk_windows=chunk)
        with pytest.raises(ConfigurationError, match="integer"):
            with execution(chunk_windows=chunk):
                pass

    def test_engine_settings_ignore_the_ambient_context(self, monkeypatch):
        monkeypatch.delenv(PROVIDER_ENV_VAR, raising=False)
        monkeypatch.delenv(CHUNK_ENV_VAR, raising=False)
        outside = EngineConfig().resolve()
        with execution(provider="explicit", chunk_windows=3):
            inside = EngineConfig().resolve()
        assert inside == outside

    def test_runner_settings_ignore_the_ambient_context(self, monkeypatch):
        """A runner built directly resolves like an engine."""
        from repro.fleet import FleetRunner

        monkeypatch.delenv(PROVIDER_ENV_VAR, raising=False)
        monkeypatch.delenv(CHUNK_ENV_VAR, raising=False)
        outside = FleetRunner(EngineConfig()).config
        with execution(provider="explicit", chunk_windows=3):
            runner = FleetRunner(EngineConfig())
            report = runner.run_report(
                [generate_tachogram(TachogramSpec(seed=6), 900.0)]
            )
        assert runner.config == outside
        assert (report.provider, report.chunk_windows) == (
            outside.provider, outside.chunk_windows,
        )

    def test_in_process_fleet_slot_keeps_engine_arena_and_profiler(self):
        rr = generate_tachogram(TachogramSpec(seed=6), 900.0)
        config = EngineConfig(jobs=1, provider="numpy", profile=True)
        with Engine(config) as engine:
            engine.analyze_cohort([rr])
            assert engine.arena.stats()["misses"] > 0
            assert engine.profiler.report()["fft"]["calls"] > 0


def _pool_context() -> tuple:
    """What a pool task sees: provider, chunk size, pooled arena buffers."""
    from repro.ffts.providers.registry import resolve_provider_name
    from repro.lomb.fast import get_batch_chunk_windows

    context = current_execution()
    arena = context.arena
    return (
        context.provider,
        context.chunk_windows,
        resolve_provider_name(),
        get_batch_chunk_windows(),
        None if arena is None else arena.stats()["pooled_buffers"],
    )


@pytest.mark.slow
def test_pool_process_runs_under_parent_settings():
    from repro.fleet.worker import init_worker

    config = EngineConfig(provider="explicit", chunk_windows=32).pinned()
    fork = multiprocessing.get_context("fork")
    with fork.Pool(
        1, initializer=init_worker, initargs=(config, None)
    ) as pool:
        seen = pool.apply(_pool_context)
    provider, chunk, resolved, effective, pooled = seen
    assert (provider, chunk) == ("explicit", 32)
    assert (resolved, effective) == ("explicit", 32)
    assert pooled is not None and pooled > 0
    assert current_execution() == ExecutionContext()
