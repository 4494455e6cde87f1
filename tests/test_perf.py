"""Tests for :mod:`repro.perf` — arenas, profiler, and steady-state
allocation behaviour of the streaming hot path.

The contract under test is the one the perf layer is built on: arenas
and profilers change *where buffers come from* and *what gets measured*,
never *what is computed* — arena-on and arena-off runs must be
bit-identical, and a disabled profiler must cost (near) nothing.
"""

from __future__ import annotations

import contextvars
import threading
import tracemalloc

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig
from repro.hrv.rr import RRSeries
from repro.perf import ExecutionContext, current_execution, execution
from repro.perf.profiler import (
    NULL_SPAN,
    STAGES,
    StageProfiler,
    get_active_profiler,
    set_active_profiler,
    span,
)
from repro.perf.workspace import Scratch, WorkspaceArena, scratch


def _synthetic_rr(duration: float = 300.0, seed: int = 7) -> RRSeries:
    rng = np.random.default_rng(seed)
    times = []
    t = 0.0
    while t < duration:
        rr = 0.8 + 0.05 * np.sin(2 * np.pi * 0.25 * t) + rng.normal(0, 0.01)
        t += rr
        times.append(t)
    times = np.asarray(times)
    intervals = np.diff(times, prepend=0.0)
    return RRSeries(times=times[1:], intervals=intervals[1:])


class TestWorkspaceArena:
    def test_borrow_returns_exact_shape(self):
        arena = WorkspaceArena()
        buf = arena.borrow((3, 7))
        assert buf.shape == (3, 7)
        assert buf.dtype == np.float64
        assert buf.flags["C_CONTIGUOUS"]

    def test_release_then_borrow_reuses_storage(self):
        arena = WorkspaceArena()
        first = arena.borrow((4, 16))
        base_id = id(first.base if first.base is not None else first)
        arena.release(first)
        second = arena.borrow((4, 16))
        assert id(second.base if second.base is not None else second) == base_id
        stats = arena.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_smaller_row_count_hits_same_pool(self):
        arena = WorkspaceArena()
        buf = arena.borrow((8, 32))
        arena.release(buf)
        # Fewer rows, same trailing shape: served from the pooled base.
        again = arena.borrow((5, 32))
        assert again.shape == (5, 32)
        assert arena.stats()["hits"] == 1

    def test_zero_flag_zeroes_contents(self):
        arena = WorkspaceArena()
        buf = arena.borrow((2, 8))
        buf.fill(123.0)
        arena.release(buf)
        again = arena.borrow((2, 8), zero=True)
        assert np.all(again == 0.0)

    def test_foreign_release_is_ignored(self):
        arena = WorkspaceArena()
        foreign = np.empty((4, 4))
        arena.release(foreign)  # must not raise or adopt
        assert arena.stats()["pooled_buffers"] == 0

    def test_eviction_over_cap(self):
        arena = WorkspaceArena(max_bytes=1024)
        big = arena.borrow((64, 64))  # 32 KiB, far over the 1 KiB cap
        arena.release(big)
        stats = arena.stats()
        assert stats["evictions"] == 1
        assert stats["pooled_bytes"] <= 1024

    def test_warm_preallocates(self):
        arena = WorkspaceArena()
        arena.warm((8, 16), count=2)
        stats = arena.stats()
        assert stats["pooled_buffers"] == 2
        arena.borrow((8, 16))
        assert arena.stats()["hits"] == 1

    def test_clear_drops_idle_buffers(self):
        arena = WorkspaceArena()
        arena.warm((4, 4))
        arena.clear()
        stats = arena.stats()
        assert stats["pooled_buffers"] == 0
        assert stats["pooled_bytes"] == 0


class TestScratch:
    def test_without_arena_is_plain_allocation(self):
        with Scratch(None) as ws:
            a = ws.take((3, 3))
            z = ws.take((2, 2), zero=True)
        assert a.shape == (3, 3)
        assert np.all(z == 0.0)

    def test_with_arena_releases_on_close(self):
        arena = WorkspaceArena()
        with Scratch(arena) as ws:
            ws.take((4, 8))
            ws.take((4, 8))
            assert arena.stats()["lent_buffers"] == 2
        assert arena.stats()["lent_buffers"] == 0
        assert arena.stats()["pooled_buffers"] == 2

    def test_scratch_helper_uses_active_arena(self):
        arena = WorkspaceArena()
        with execution(arena=arena):
            with scratch() as ws:
                ws.take((2, 4))
        assert arena.stats()["misses"] == 1


class TestStageProfiler:
    def test_disabled_span_is_shared_noop_singleton(self):
        assert get_active_profiler() is None
        assert span("extirpolate") is NULL_SPAN
        assert span("fft") is NULL_SPAN

    def test_disabled_overhead_is_negligible(self):
        """With no active profiler, span() must stay a constant-time no-op.

        The structural property (shared singleton, no allocation) is the
        real guarantee; the timing bound is deliberately generous so the
        test never flakes on slow CI.
        """
        import time

        assert get_active_profiler() is None
        n = 100_000
        start = time.perf_counter()
        for _ in range(n):
            with span("extirpolate"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0  # ~20 µs/iteration budget: orders above reality

    def test_enabled_span_accumulates(self):
        profiler = StageProfiler()
        with execution(profiler=profiler):
            for _ in range(3):
                with span("fft"):
                    pass
        report = profiler.report()
        assert report["fft"]["calls"] == 3
        assert report["fft"]["seconds"] >= 0.0

    def test_observer_records_spans_no_context_profiler_claims(self):
        observer, own = StageProfiler(), StageProfiler()
        previous = set_active_profiler(observer)
        try:
            with span("fft"):
                pass
            with execution(profiler=own):
                with span("fft"):
                    pass

            def other_thread():
                with span("prepare"):
                    pass

            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        finally:
            set_active_profiler(previous)
        assert own.report()["fft"]["calls"] == 1
        assert observer.report()["fft"]["calls"] == 1
        assert observer.report()["prepare"]["calls"] == 1

    def test_trace_alloc_records_bytes(self):
        profiler = StageProfiler(trace_alloc=True)
        tracemalloc.start()
        try:
            with execution(profiler=profiler):
                with span("fft"):
                    _keep = np.empty(65536)  # noqa: F841
        finally:
            tracemalloc.stop()
        assert profiler.report()["fft"]["alloc_bytes"] > 0

    def test_format_report_renders(self):
        profiler = StageProfiler()
        with profiler.span("hub_flush"):
            pass
        text = profiler.format_report()
        assert "hub_flush" in text
        assert "calls" in text


class TestEngineIntegration:
    def test_arena_on_off_results_bit_identical(self):
        rr = _synthetic_rr()
        with Engine(EngineConfig(arena=True)) as on:
            # The first pass leases every buffer the kernel needs; the
            # second, whose result is compared, runs on recycled ones.
            on.analyze(rr)
            result_on = on.analyze(rr)
            assert on.arena is not None
            assert on.arena.stats()["hits"] > 0
        with Engine(EngineConfig(arena=False)) as off:
            result_off = off.analyze(rr)
            assert off.arena is None
        assert np.array_equal(
            result_on.welch.spectrogram, result_off.welch.spectrogram
        )
        assert np.array_equal(
            result_on.welch.window_times, result_off.welch.window_times
        )

    def test_streaming_with_arena_matches_batch(self):
        rr = _synthetic_rr()
        with Engine(EngineConfig()) as engine:
            batch = engine.analyze(rr)
            session = engine.open_stream()
            for lo in range(0, rr.times.size, 64):
                session.feed(
                    rr.times[lo : lo + 64], rr.intervals[lo : lo + 64]
                )
            streamed = session.finalize()
        assert np.array_equal(
            batch.welch.spectrogram, streamed.welch.spectrogram
        )

    def test_profile_config_populates_stage_report(self):
        rr = _synthetic_rr()
        with Engine(EngineConfig(profile=True)) as engine:
            engine.analyze(rr)
            report = engine.profiler.report()
        assert {"extirpolate", "fft", "lomb_combine", "assemble"} <= set(
            report
        )
        assert all(row["calls"] > 0 for row in report.values())

    def test_profiled_hub_flush_reports_metrics(self):
        rr = _synthetic_rr()
        with Engine(EngineConfig(profile=True)) as engine:
            hub = engine.open_hub()
            hub.feed("s", rr.times, rr.intervals)
            emitted = hub.flush()
            report = engine.profiler.report()
            hub.close()
        assert sum(map(len, emitted.values())) > 0
        assert report["hub_flush"]["calls"] == 1
        assert report["metrics"]["calls"] >= 1
        assert report["metrics"]["seconds"] <= report["hub_flush"]["seconds"]

    def test_profiled_hub_flush_names_gather_prepare_and_record(self):
        rr = _synthetic_rr()
        with Engine(EngineConfig(profile=True)) as engine:
            hub = engine.open_hub()
            hub.feed("s", rr.times, rr.intervals)
            hub.flush()
            report = engine.profiler.report()
            hub.close()
        for stage in ("concat", "prepare", "record"):
            assert stage in STAGES
            assert report[stage]["calls"] >= 1
            assert report[stage]["seconds"] <= report["hub_flush"]["seconds"]

    def test_cohort_runs_in_engine_arena_and_profiler(self):
        rr = _synthetic_rr(duration=1800.0)
        config = EngineConfig(jobs=1, provider="numpy", profile=True)
        with Engine(config) as engine:
            engine.analyze_cohort([rr])
            report = engine.profiler.report()
            arena = engine.arena.stats()
        for stage in (
            "prepare", "extirpolate", "fft", "lomb_combine", "metrics",
            "assemble",
        ):
            assert report[stage]["calls"] >= 1
        assert arena["hits"] + arena["misses"] > 0

    @pytest.mark.slow
    def test_pool_cohort_assembles_under_engine_profiler(self):
        rr = _synthetic_rr(duration=1800.0)
        config = EngineConfig(jobs=2, provider="numpy", profile=True)
        with Engine(config) as engine:
            engine.analyze_cohort([rr])
            report = engine.profiler.report()
        assert report["assemble"]["calls"] >= 1

    def test_profile_off_engine_has_no_profiler(self):
        with Engine(EngineConfig()) as engine:
            assert engine.profiler is None

    def test_config_round_trips_arena_and_profile(self):
        config = EngineConfig(arena=False, profile=True)
        clone = EngineConfig.from_json(config.to_json())
        assert clone == config
        assert clone.arena is False
        assert clone.profile is True

    def test_engine_leaves_no_global_state(self):
        rr = _synthetic_rr()
        with Engine(EngineConfig(profile=True)) as engine:
            engine.analyze(rr)
        assert current_execution() == ExecutionContext()
        assert get_active_profiler() is None


class TestSteadyStateAllocations:
    @pytest.mark.slow
    def test_hub_flush_allocations_bounded_and_non_growing(self):
        """Steady-state flushes must not allocate proportionally to history.

        After a few warm-up rounds the arena owns every kernel temporary,
        so per-flush allocation churn must (a) be far below the
        arena-less churn and (b) stay flat instead of growing with the
        number of rounds already streamed.
        """

        def churn_per_round(config):
            rr = _synthetic_rr(duration=1200.0)
            chunks = [
                (rr.times[lo : lo + 48], rr.intervals[lo : lo + 48])
                for lo in range(0, rr.times.size, 48)
            ]
            with Engine(config) as engine:
                hub = engine.open_hub()
                churn = []
                tracemalloc.start()
                try:
                    for times, values in chunks:
                        hub.feed("s", times, values)
                        before = tracemalloc.get_traced_memory()[0]
                        tracemalloc.reset_peak()
                        hub.flush()
                        peak = tracemalloc.get_traced_memory()[1]
                        churn.append(peak - before)
                finally:
                    tracemalloc.stop()
                hub.close()
            return churn

        with_arena = churn_per_round(EngineConfig(arena=True))
        without = churn_per_round(EngineConfig(arena=False))
        # Compare steady state: skip the warm-up rounds where the arena
        # is still populating its pools.
        steady_on = with_arena[3:]
        steady_off = without[3:]
        assert sum(steady_on) * 2 < sum(steady_off), (
            f"arena did not reduce flush churn: on={sum(steady_on)} "
            f"off={sum(steady_off)}"
        )
        # Non-growing: the last rounds must not allocate more than the
        # early steady-state rounds (2x headroom for allocator noise).
        early = max(steady_on[: len(steady_on) // 2]) or 1
        late = max(steady_on[len(steady_on) // 2 :])
        assert late <= 2 * early, (
            f"steady-state churn grew: early max {early}, late max {late}"
        )


def _init_worker_context(**kwargs) -> ExecutionContext:
    """The context ``init_worker`` sets, read in a throwaway copy.

    A pool process runs its initializer and then every task in one
    context; a copy of the test's stands in for it, so the test's own
    context is never touched.
    """
    from repro.fleet.worker import init_worker
    from repro.lomb.welch import WelchLomb

    process = contextvars.copy_context()
    process.run(init_worker, WelchLomb(), **kwargs)
    assert current_execution() == ExecutionContext()
    return process.run(current_execution)


class TestFleetWorkerArena:
    def test_init_worker_installs_process_arena(self):
        installed = _init_worker_context(chunk_windows=None, arena=True)
        assert installed.arena is not None
        warmed = _init_worker_context(chunk_windows=32, arena=True)
        assert warmed.arena is not None
        assert warmed.arena.stats()["pooled_buffers"] > 0

    def test_init_worker_without_arena_keeps_state(self):
        context = _init_worker_context(chunk_windows=None, arena=False)
        assert context.arena is None
