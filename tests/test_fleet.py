"""Tests for the fleet execution engine (sharding, shm, runner, merge).

The load-bearing claim is exactness: a sharded multiprocess cohort run
must reproduce the single-process batched path **bit-for-bit** — same
spectrograms, same Welch averages, same operation counts — because the
per-window kernels are composition-independent and the merge reuses the
single-process assembly back end.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import time

import numpy as np
import pytest

from repro.core.system import ConventionalPSA, QualityScalablePSA
from repro.ecg.rr_synthesis import TachogramSpec, generate_tachogram
from repro.engine import Engine, EngineConfig
from repro.errors import ConfigurationError, SignalError
from repro.ffts.pruning import PruningSpec
from repro.fleet import (
    FleetRunner,
    SharedRecordingStore,
    attach_array,
    plan_shards,
)
from repro.lomb.fast import FastLomb
from repro.lomb.welch import WelchLomb


def _cohort(n=3, seconds=900.0):
    return [
        generate_tachogram(TachogramSpec(seed=seed), seconds)
        for seed in range(1, n + 1)
    ]


class TestPlanShards:
    def test_small_recordings_one_shard_each(self):
        shards = plan_shards([40, 50, 60], n_jobs=4)
        assert [(s.recording, s.lo, s.hi) for s in shards] == [
            (0, 0, 40),
            (1, 0, 50),
            (2, 0, 60),
        ]

    def test_oversized_recording_splits_contiguously(self):
        shards = plan_shards([1000], n_jobs=4, min_windows_per_shard=32)
        assert len(shards) > 1
        assert shards[0].lo == 0 and shards[-1].hi == 1000
        for left, right in zip(shards, shards[1:]):
            assert left.hi == right.lo
        assert sum(s.n_windows for s in shards) == 1000

    def test_min_windows_floor(self):
        # 100 windows with a floor of 60 cannot make 4 shards.
        shards = plan_shards(
            [100], n_jobs=4, min_windows_per_shard=60, oversubscription=1
        )
        assert all(s.n_windows >= 40 for s in shards)
        assert sum(s.n_windows for s in shards) == 100

    def test_zero_window_recording_skipped(self):
        shards = plan_shards([0, 10], n_jobs=2)
        assert [s.recording for s in shards] == [1]

    def test_all_zero_window_recordings_yield_no_shards(self):
        assert plan_shards([0, 0, 0], n_jobs=4) == []

    def test_zero_window_recordings_interleaved(self):
        # Zero-window entries anywhere in the cohort keep every other
        # recording's index and coverage intact.
        shards = plan_shards([0, 40, 0, 50, 0], n_jobs=2)
        assert [(s.recording, s.lo, s.hi) for s in shards] == [
            (1, 0, 40),
            (3, 0, 50),
        ]

    def test_cohort_smaller_than_jobs(self):
        # Two tiny recordings over eight workers: one shard each (never
        # split below the per-shard floor), every window exactly once.
        shards = plan_shards([40, 50], n_jobs=8)
        assert [(s.recording, s.lo, s.hi) for s in shards] == [
            (0, 0, 40),
            (1, 0, 50),
        ]

    def test_one_recording_dominates_the_cohort(self):
        # One recording larger than every other shard combined still
        # splits finely enough that the pool can balance it.
        counts = [4000, 10, 12, 8]
        shards = plan_shards(counts, n_jobs=4)
        giant = [s for s in shards if s.recording == 0]
        assert len(giant) > 1
        assert giant[0].lo == 0 and giant[-1].hi == 4000
        for left, right in zip(giant, giant[1:]):
            assert left.hi == right.lo
        # Small recordings remain one shard each, coverage is exact.
        for recording in (1, 2, 3):
            own = [s for s in shards if s.recording == recording]
            assert [(s.lo, s.hi) for s in own] == [(0, counts[recording])]
        assert sum(s.n_windows for s in shards) == sum(counts)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            plan_shards([10], n_jobs=0)
        with pytest.raises(ConfigurationError):
            plan_shards([10], n_jobs=1, min_windows_per_shard=0)
        with pytest.raises(ConfigurationError):
            plan_shards([-1], n_jobs=1)


class TestSharedRecordingStore:
    def test_roundtrip_and_cleanup(self, rng):
        data = rng.standard_normal(257)
        store = SharedRecordingStore()
        ref = store.put(data)
        assert ref.length == 257
        block, view = attach_array(ref)
        try:
            np.testing.assert_array_equal(view, data)
            assert not view.flags.writeable
        finally:
            block.close()
        store.close()
        with pytest.raises(FileNotFoundError):
            attach_array(ref)

    def test_context_manager_unlinks(self, rng):
        with SharedRecordingStore() as store:
            ref = store.put(rng.standard_normal(16))
        with pytest.raises(FileNotFoundError):
            attach_array(ref)


class TestFleetRunnerInProcess:
    """jobs=1 exercises the full shard/pack/merge pipeline without a pool."""

    def test_matches_single_process_batched(self):
        recordings = _cohort()
        welch = WelchLomb()
        runner = FleetRunner(welch=welch, n_jobs=1)
        fleet_results = runner.run(recordings, count_ops=True)
        for rr, fleet in zip(recordings, fleet_results):
            single = welch.analyze(rr.times, rr.intervals, count_ops=True)
            np.testing.assert_array_equal(
                fleet.spectrogram, single.spectrogram
            )
            np.testing.assert_array_equal(fleet.averaged, single.averaged)
            np.testing.assert_array_equal(
                fleet.window_times, single.window_times
            )
            np.testing.assert_array_equal(
                fleet.frequencies, single.frequencies
            )
            assert fleet.counts == single.counts
            assert fleet.skipped_windows == single.skipped_windows

    def test_accepts_time_value_pairs(self):
        rr = _cohort(n=1)[0]
        runner = FleetRunner(n_jobs=1)
        by_series = runner.run([rr])[0]
        by_pair = runner.run([(rr.times, rr.intervals)])[0]
        np.testing.assert_array_equal(
            by_series.spectrogram, by_pair.spectrogram
        )

    def test_empty_cohort_rejected(self):
        with pytest.raises(SignalError):
            FleetRunner(n_jobs=1).run([])

    def test_unanalysable_recording_rejected(self):
        times = np.linspace(0.0, 20.0, 24)
        values = 0.8 + 0.01 * np.sin(times)
        with pytest.raises(SignalError):
            FleetRunner(n_jobs=1).run([(times, values)])

    def test_bad_n_jobs(self):
        with pytest.raises(ConfigurationError):
            FleetRunner(n_jobs=0)

    def test_report_geometry(self):
        recordings = _cohort()
        report = FleetRunner(
            welch=WelchLomb(), n_jobs=1, min_windows_per_shard=4
        ).run_report(recordings)
        assert report.n_jobs == 1
        assert report.start_method is None
        assert report.n_shards >= len(recordings)
        assert report.chunk_windows >= 1
        assert len(report.results) == len(recordings)


@pytest.mark.slow
class TestFleetRunnerMultiprocess:
    def test_pool_matches_single_process_batched(self):
        recordings = _cohort()
        welch = WelchLomb()
        with FleetRunner(
            welch=welch, n_jobs=2, min_windows_per_shard=4
        ) as runner:
            report = runner.run_report(recordings, count_ops=True)
        assert report.n_jobs == 2
        assert report.start_method is not None
        for rr, fleet in zip(recordings, report.results):
            single = welch.analyze(rr.times, rr.intervals, count_ops=True)
            np.testing.assert_array_equal(
                fleet.spectrogram, single.spectrogram
            )
            np.testing.assert_array_equal(fleet.averaged, single.averaged)
            assert fleet.counts == single.counts

    def test_window_shards_of_one_huge_recording(self):
        # One recording, forced into several window-range shards.
        rr = generate_tachogram(TachogramSpec(seed=9), 3600.0)
        welch = WelchLomb()
        with FleetRunner(
            welch=welch, n_jobs=2, min_windows_per_shard=8, oversubscription=2
        ) as runner:
            report = runner.run_report([rr])
            # The persistent pool makes repeated runs (the serving
            # pattern) reuse the forked workers.
            again = runner.run([rr])[0]
        assert report.n_shards > 1
        single = welch.analyze(rr.times, rr.intervals)
        np.testing.assert_array_equal(
            report.results[0].spectrogram, single.spectrogram
        )
        np.testing.assert_array_equal(again.spectrogram, single.spectrogram)

    def test_wavelet_dynamic_pruning_counts_identical(self):
        # Dynamic pruning makes executed counts data-dependent — the
        # sharded path must reproduce them exactly.
        rr = generate_tachogram(TachogramSpec(seed=4), 900.0)
        system = QualityScalablePSA(
            pruning=PruningSpec.paper_mode(3, dynamic=True)
        )
        welch = system.welch
        single = welch.analyze(rr.times, rr.intervals, count_ops=True)
        with FleetRunner(
            welch=welch, n_jobs=2, min_windows_per_shard=4
        ) as runner:
            fleet = runner.run([rr], count_ops=True)[0]
        np.testing.assert_array_equal(fleet.spectrogram, single.spectrogram)
        assert fleet.counts == single.counts

    def test_analyze_cohort_matches_analyze(self):
        recordings = _cohort(n=2, seconds=600.0)
        system = ConventionalPSA()
        with Engine(EngineConfig(jobs=2)) as engine:
            cohort = engine.analyze_cohort(recordings)
        for rr, fleet in zip(recordings, cohort):
            single = system.analyze(rr)
            assert fleet.lf_hf == single.lf_hf
            np.testing.assert_array_equal(
                fleet.window_ratios, single.window_ratios
            )
            assert (
                fleet.detection.is_arrhythmia == single.detection.is_arrhythmia
            )

    def test_custom_chunk_pin_does_not_change_results(self):
        recordings = _cohort(n=2, seconds=600.0)
        welch = WelchLomb(FastLomb(scaling="denormalized"))
        with FleetRunner(welch=welch, n_jobs=2) as runner:
            baseline = runner.run(recordings)
        with FleetRunner(welch=welch, n_jobs=2, chunk_windows=7) as runner:
            pinned = runner.run(recordings)
        for a, b in zip(baseline, pinned):
            np.testing.assert_array_equal(a.spectrogram, b.spectrogram)


def _boom(task, refs):  # must be module-level: pool pickles it by reference
    raise ValueError("injected shard failure")


class TestAttachConcurrency:
    def test_threaded_attaches_leave_tracker_intact(self, rng):
        """Concurrent attaches must not corrupt the resource tracker.

        The pre-3.13 attach fallback swaps ``resource_tracker.register``
        process-globally; unlocked, two racing attaches (a multiplexed
        hub's bread and butter) could leave the no-op installed forever
        or restore the hook mid-attach and register a sibling's block.
        The module lock makes the swap atomic: after any number of
        concurrent attaches the canonical hook must be back.
        """
        import threading
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        data = rng.standard_normal(4096)
        errors: list[Exception] = []
        with SharedRecordingStore() as store:
            ref = store.put(data)

            def worker():
                try:
                    for _ in range(50):
                        block, view = attach_array(ref)
                        try:
                            assert view[0] == data[0]
                            assert view[-1] == data[-1]
                        finally:
                            block.close()
                except Exception as exc:  # pragma: no cover - regression
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []
        assert resource_tracker.register is original_register


class TestRunSpans:
    def test_in_process_matches_analyze_spans(self):
        from repro.ffts.providers.registry import set_default_provider
        from repro.lomb.welch import analyze_spans

        rr = _cohort(n=1, seconds=900.0)[0]
        welch = WelchLomb(FastLomb(scaling="denormalized"))
        plan = welch.plan_windows(rr.times, rr.intervals)
        runner = FleetRunner(welch=welch, n_jobs=1, provider="numpy")
        spectra, metrics = runner.run_spans(
            plan.times, plan.values, plan.spans, count_ops=True
        )
        set_default_provider("numpy")
        try:
            reference = analyze_spans(
                welch.analyzer, plan.times, plan.values, plan.spans, True
            )
        finally:
            set_default_provider(None)
        assert len(spectra) == len(reference)
        assert len(metrics) == len(reference)
        for got, want in zip(spectra, reference):
            np.testing.assert_array_equal(got.power, want.power)
            np.testing.assert_array_equal(got.frequencies, want.frequencies)
            assert got.counts == want.counts

    def test_empty_spans_short_circuit(self):
        rr = _cohort(n=1, seconds=600.0)[0]
        runner = FleetRunner(n_jobs=1, provider="numpy")
        assert runner.run_spans(rr.times, rr.intervals, []) == ([], ())


class TestVariantResolution:
    def test_engine_runner_and_executor_share_one_system(self, monkeypatch):
        """One process resolves one variant to one PSA system object."""
        from repro.engine.controller import degradation_ladder
        from repro.fleet import runner as runner_module
        from repro.fleet import worker as worker_module
        from repro.fleet.worker import SpanTask, execute_task

        config = EngineConfig(system="quality-scalable", provider="numpy")
        rung = degradation_ladder(config)[-1]
        variant = (rung.system, rung.pruning)
        analyzers = []
        for module in (runner_module, worker_module):
            original = module.analyze_spans_quality

            def spy(analyzer, *args, _original=original, **kwargs):
                owners = kwargs.get("owners")
                analyzers.append(owners[0] if owners else analyzer)
                return _original(analyzer, *args, **kwargs)

            monkeypatch.setattr(module, "analyze_spans_quality", spy)
        rr = _cohort(n=1, seconds=600.0)[0]
        with Engine(config) as engine:
            system = engine._system_for_variant(variant)
            plan = engine.welch.plan_windows(rr.times, rr.intervals)
            spans = plan.spans[:2]
            FleetRunner.from_config(config, welch=engine.welch).run_spans(
                plan.times, plan.values, spans, variants=[variant] * 2
            )
            task = SpanTask(
                task_id=0, times_key=0, values_key=1, spans=spans,
                count_ops=False, variant=variant,
            )
            execute_task(task, [plan.times, plan.values], engine.welch, config)
        assert system is not engine.system
        assert analyzers == [system.welch.analyzer] * 2

    def test_variant_without_config_is_configuration_error(self):
        from repro.engine.controller import degradation_ladder
        from repro.fleet.worker import SpanTask, execute_task

        rung = degradation_ladder(EngineConfig(system="quality-scalable"))[-1]
        variant = (rung.system, rung.pruning)
        rr = _cohort(n=1, seconds=600.0)[0]
        welch = WelchLomb()
        plan = welch.plan_windows(rr.times, rr.intervals)
        runner = FleetRunner(welch=welch, n_jobs=1, provider="numpy")
        with pytest.raises(ConfigurationError, match="EngineConfig"):
            runner.run_spans(
                plan.times, plan.values, plan.spans[:2], variants=[variant] * 2
            )
        task = SpanTask(
            task_id=0, times_key=0, values_key=1, spans=plan.spans[:2],
            count_ops=False, variant=variant,
        )
        with pytest.raises(ConfigurationError, match="EngineConfig"):
            execute_task(task, [plan.times, plan.values], welch)


@pytest.mark.slow
class TestRunSpansMultiprocess:
    def test_pool_dispatch_bit_identical(self):
        rr = _cohort(n=1, seconds=2400.0)[0]
        welch = WelchLomb(FastLomb(scaling="denormalized"))
        plan = welch.plan_windows(rr.times, rr.intervals)
        assert plan.n_windows >= 16  # enough to split across workers
        single = FleetRunner(welch=welch, n_jobs=1, provider="numpy")
        reference, ref_metrics = single.run_spans(
            plan.times, plan.values, plan.spans, count_ops=True
        )
        with FleetRunner(
            welch=welch, n_jobs=2, provider="numpy"
        ) as runner:
            spectra, metrics = runner.run_spans(
                plan.times, plan.values, plan.spans, count_ops=True
            )
            # The persistent pool stays up for the next batch.
            assert runner._pool is not None
            again, _ = runner.run_spans(
                plan.times, plan.values, plan.spans[:5]
            )
        assert len(again) == 5
        assert len(spectra) == len(reference)
        assert metrics == ref_metrics
        for got, want in zip(spectra, reference):
            np.testing.assert_array_equal(got.power, want.power)
            assert got.counts == want.counts

    def test_interleaved_variants_come_back_in_span_order(self):
        """Pool slices hold one level each; results keep span order."""
        from repro.engine import EngineConfig
        from repro.engine.controller import degradation_ladder
        from repro.engine.engine import build_system

        config = EngineConfig(system="quality-scalable", provider="numpy")
        welch = build_system(config).welch
        rr = _cohort(n=1, seconds=2400.0)[0]
        plan = welch.plan_windows(rr.times, rr.intervals)
        rungs = [None] + [
            (rung.system, rung.pruning) for rung in degradation_ladder(config)
        ][1:]
        variants = [rungs[i % len(rungs)] for i in range(plan.n_windows)]
        single = FleetRunner(
            welch=welch, n_jobs=1, provider="numpy", config=config
        )
        reference, ref_metrics = single.run_spans(
            plan.times, plan.values, plan.spans, count_ops=True,
            variants=variants,
        )
        with FleetRunner(
            welch=welch, n_jobs=2, provider="numpy", config=config
        ) as runner:
            spectra, metrics = runner.run_spans(
                plan.times, plan.values, plan.spans, count_ops=True,
                variants=variants,
            )
        assert metrics == ref_metrics
        for got, want in zip(spectra, reference):
            assert got.power.tobytes() == want.power.tobytes()
            assert got.counts == want.counts


@pytest.mark.slow
class TestPoolLifecycle:
    def test_failure_clears_pool_and_key_then_recovers(self, monkeypatch):
        recordings = _cohort(n=2, seconds=600.0)
        runner = FleetRunner(n_jobs=2)
        try:
            with monkeypatch.context() as patch:
                patch.setattr("repro.fleet.runner.run_pool_task", _boom)
                with pytest.raises(ValueError, match="injected"):
                    runner.run(recordings)
            # The failure path must clear *both* pool handles — a stale
            # key next to a fresh pool would claim the wrong settings.
            assert runner._pool is None
            assert runner._pool_key is None
            assert runner._pool_finalizer is None
            results = runner.run(recordings)  # pool rebuilt cleanly
            assert len(results) == 2
        finally:
            runner.close()

    def test_close_clears_key_and_finalizer(self):
        recordings = _cohort(n=2, seconds=600.0)
        runner = FleetRunner(n_jobs=2)
        runner.run(recordings)
        assert runner._pool is not None
        assert runner._pool_key is not None
        assert runner._pool_finalizer is not None
        runner.close()
        assert runner._pool is None
        assert runner._pool_key is None
        assert runner._pool_finalizer is None
        runner.close()  # idempotent

    def test_abandoned_runner_reaps_workers(self):
        """Dropping an un-closed runner must not strand live workers."""
        import gc
        import os
        import time

        def alive(pid: int) -> bool:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            except PermissionError:  # pragma: no cover - other owner
                return True
            return True

        recordings = _cohort(n=2, seconds=600.0)
        runner = FleetRunner(n_jobs=2)
        runner.run(recordings)
        pids = [worker.pid for worker in runner._pool._pool]
        assert pids and all(alive(pid) for pid in pids)
        del runner
        gc.collect()
        deadline = time.monotonic() + 10.0
        while any(alive(pid) for pid in pids):
            if time.monotonic() > deadline:  # pragma: no cover - hang
                raise AssertionError(
                    f"stranded workers after gc: "
                    f"{[p for p in pids if alive(p)]}"
                )
            time.sleep(0.05)


def _die_holding_first_shard(task, refs):
    """Fork-inherited stand-in for ``run_pool_task`` that kills its worker.

    The worker claiming task 0 reports the task start, gives the
    progress queue's feeder thread a moment to flush, then hard-exits —
    the parent must turn the silent loss into a diagnostic RuntimeError.
    """
    from repro.fleet import worker as worker_module
    from repro.fleet.worker import run_pool_task

    if task.task_id == 0:
        worker_module._report_task_start(task.task_id)
        time.sleep(0.3)
        os._exit(3)
    return run_pool_task(task, refs)


class TestPoolWorkerDeath:
    def test_dead_worker_raises_with_exit_code_and_task(self, monkeypatch):
        """A worker dying mid-shard names its pid, exit code and task.

        Without the watchdog, ``multiprocessing.Pool`` would simply
        never deliver the lost shard's result and the run would hang.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method required to inherit the stand-in")
        from repro.fleet import runner as runner_module

        monkeypatch.setattr(
            runner_module, "run_pool_task", _die_holding_first_shard
        )
        with FleetRunner(n_jobs=2, start_method="fork") as runner:
            with pytest.raises(RuntimeError) as excinfo:
                runner.run(_cohort(3))
        message = str(excinfo.value)
        assert "exit code 3" in message
        assert "while running task 0" in message
        # The broken pool was discarded so the next run starts clean.
        assert runner._pool is None

    def test_dead_worker_in_split_span_batch_raises(self, monkeypatch):
        """A split ``run_spans`` batch takes the same watchdog path."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method required to inherit the stand-in")
        from repro.fleet import runner as runner_module

        monkeypatch.setattr(
            runner_module, "run_pool_task", _die_holding_first_shard
        )
        rr = _cohort(n=1, seconds=2400.0)[0]
        welch = WelchLomb(FastLomb(scaling="denormalized"))
        plan = welch.plan_windows(rr.times, rr.intervals)
        assert plan.n_windows >= 16  # enough to split across workers
        with FleetRunner(
            welch=welch, n_jobs=2, start_method="fork", provider="numpy"
        ) as runner:
            with pytest.raises(RuntimeError) as excinfo:
                runner.run_spans(plan.times, plan.values, plan.spans)
        message = str(excinfo.value)
        pid = re.search(r"pool worker pid (\d+) died", message)
        assert pid is not None and int(pid.group(1)) != os.getpid()
        assert "exit code 3" in message
        assert "while running task 0" in message
        assert runner._pool is None
