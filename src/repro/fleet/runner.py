"""Fleet-scale sharded execution of the windowed-PSA engine.

:class:`FleetRunner` runs many recordings — or the window shards of one
huge recording, or one span batch split into slices — across local pool
processes, the calling process and remote worker daemons, all by one
path:

1. the parent validates every recording and lays out its windows
   (:meth:`WelchLomb.plan_windows`), then shards the kept windows into
   contiguous ranges (:mod:`repro.fleet.sharding`);
2. every shard, like every slice of a split span batch, becomes one
   :class:`~repro.fleet.worker.SpanTask` over keyed sample arrays;
3. slots claim the tasks from a work-stealing board
   (:class:`_TaskBoard`): two threads per pool process, so one task
   waits in the pool's queue behind each running one; the calling
   thread when ``n_jobs == 1``; one thread per remote worker.  Pool
   slots pass the arrays through POSIX shared memory
   (:mod:`repro.fleet.shm`), workers slicing windows out of the mapped
   blocks zero-copy; remote slots upload each array once per
   connection.  Every slot runs
   :func:`~repro.fleet.worker.execute_task`;
4. per-task spectra are reassembled in task order and fed through the
   same :func:`~repro.lomb.welch.assemble_result` back end as the
   single-process path, making the merged spectrograms, Welch averages
   and operation counts identical to it by construction (bit-exact:
   every per-window quantity is computed by composition-independent
   kernels).

The parent warms every execution-time plan cache **before** the pool
forks, so workers inherit twiddle tables, pruning masks and whole
kernel plans copy-on-write instead of rebuilding them per worker.  The
worker pool is **persistent**: repeated :meth:`FleetRunner.run` calls
(the serving pattern) reuse it, paying the fork/initialise cost once;
call :meth:`FleetRunner.close` (or use the runner as a context manager)
when done.  :meth:`FleetRunner.run_spans`, the streaming hub's path,
runs a batch too small to split as one fused in-process kernel call
instead.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, SignalError
from ..hrv.rr import RRSeries
from ..lomb.fast import get_batch_chunk_windows, pinned_execution
from ..lomb.welch import (
    RecordingWindows,
    WelchLomb,
    WelchLombResult,
    analyze_spans_quality,
    assemble_result,
)
from ..ffts.plancache import warm_execution_caches
from ..ffts.providers.registry import resolve_provider_name
from .remote import DEFAULT_TIMEOUT, RemoteTaskError, RemoteWorker
from .sharding import (
    DEFAULT_MIN_WINDOWS_PER_SHARD,
    DEFAULT_OVERSUBSCRIPTION,
    plan_shards,
)
from .shm import SharedRecordingStore
from .transport import parse_address
from .worker import (
    SpanTask,
    execute_task,
    init_worker,
    resolve_variant,
    run_pool_task,
    unpack_metrics,
    unpack_spectra,
)

__all__ = ["FleetReport", "FleetRunner"]

#: Fewest windows a :meth:`FleetRunner.run_spans` pool slice may carry —
#: below this, splitting a span batch across more workers costs more in
#: task dispatch than the extra parallelism recovers.
MIN_SPANS_PER_SLICE = 8

#: Seconds between result polls while watching the pool for dead workers.
_POOL_POLL_SECONDS = 0.2

#: Board slots per pool process.  With two, one task waits in the pool's
#: queue behind each running one, so a worker starts its next task the
#: moment it finishes one instead of idling for a result round trip.
_SLOTS_PER_POOL_PROCESS = 2


def _terminate_abandoned_pool(pool) -> None:
    """`weakref.finalize` safety net for unreleased worker pools.

    A :class:`FleetRunner` (or the :class:`~repro.engine.Engine` that
    owns one) abandoned without :meth:`FleetRunner.close` must not
    strand live worker processes — at garbage collection, and at
    interpreter exit at the latest (``weakref.finalize`` registers
    atexit), the pool is torn down hard.
    """
    pool.terminate()
    pool.join()


class _TaskBoard:
    """Thread-safe work queue with reassignment, for the fleet scheduler.

    Tasks are integer ids.  Executor threads :meth:`claim` one, then
    either :meth:`complete` it with a result, :meth:`requeue` it (their
    worker died — some other executor will re-run it; results are
    merged order-independently so re-execution is safe), or
    :meth:`abort` the whole board (deterministic failure that would
    reproduce anywhere).  Every claimed task is always returned by one
    of the three, so the queue-empty/none-in-flight state is decisive.
    """

    def __init__(self, n_tasks: int):
        self._cond = threading.Condition()
        self._queue: deque[int] = deque(range(n_tasks))
        self._results: dict[int, object] = {}
        self._n = n_tasks
        self._failure: BaseException | None = None

    def claim(self) -> int | None:
        """Next task id to run, or ``None`` when the board is finished."""
        with self._cond:
            while True:
                if self._failure is not None or len(self._results) == self._n:
                    return None
                if self._queue:
                    return self._queue.popleft()
                self._cond.wait()

    def complete(self, task_id: int, result) -> None:
        with self._cond:
            self._results[task_id] = result
            self._cond.notify_all()

    def requeue(self, task_id: int) -> None:
        with self._cond:
            self._queue.append(task_id)
            self._cond.notify_all()

    def abort(self, failure: BaseException) -> None:
        with self._cond:
            if self._failure is None:
                self._failure = failure
            self._cond.notify_all()

    def wait(self) -> None:
        """Block until every task completed or the board aborted."""
        with self._cond:
            while self._failure is None and len(self._results) < self._n:
                self._cond.wait()

    @property
    def failure(self) -> BaseException | None:
        with self._cond:
            return self._failure

    def results_in_order(self) -> list:
        with self._cond:
            return [self._results[i] for i in range(self._n)]


@dataclass(frozen=True)
class FleetReport:
    """A fleet run's results plus its execution geometry.

    Attributes
    ----------
    results:
        One :class:`WelchLombResult` per input recording, in order.
    n_jobs:
        Worker processes used (1 means the in-process path ran).
    n_shards:
        Window shards the cohort was split into.
    chunk_windows:
        Batch sub-batch size every process ran with.
    start_method:
        Multiprocessing start method (``None`` for the in-process path).
    provider:
        Resolved FFT execution provider every process was pinned to.
    n_remote_workers:
        Remote worker daemons that served this run (0 for local-only).
    """

    results: tuple[WelchLombResult, ...]
    n_jobs: int
    n_shards: int
    chunk_windows: int
    start_method: str | None
    provider: str | None = None
    n_remote_workers: int = 0


class FleetRunner:
    """Multiprocess cohort runner over the batched Welch-Lomb engine.

    Parameters
    ----------
    welch:
        The windowed engine to replicate into every worker; defaults to
        a paper-standard :class:`WelchLomb` (2-minute windows, 50 %
        overlap, denormalized scaling).
    n_jobs:
        Worker processes; ``None`` means one per available CPU.
    start_method:
        ``multiprocessing`` start method; ``None`` prefers ``fork``
        (copy-on-write plan-cache inheritance) where available.
    min_windows_per_shard, oversubscription:
        Shard-granularity knobs, see :func:`repro.fleet.sharding.plan_shards`.
    chunk_windows:
        Batch sub-batch size to pin across the fleet; ``None`` resolves
        the host-tuned value (:func:`repro.lomb.fast.get_batch_chunk_windows`).
    provider:
        FFT execution provider to pin across the fleet; ``None``
        resolves the registry chain
        (:func:`repro.ffts.providers.registry.resolve_provider_name`)
        **once in the parent** — the resolved name is installed in
        every worker so all shards round identically, which is what
        keeps sharded results bit-identical to single-process ones
        under every provider.
    arena:
        Install a per-process :class:`~repro.perf.WorkspaceArena` in
        every worker (pre-warmed with the fleet's hot kernel shapes) so
        steady-state shards reuse buffers instead of reallocating them;
        never affects results.
    workers:
        ``host:port`` addresses of remote :class:`~repro.fleet.remote.WorkerDaemon`
        processes to schedule shards onto alongside the local slots.
        Requires ``config`` (the daemon rebuilds the engine from it).
    worker_timeout:
        Seconds of remote silence (no heartbeat) before a worker is
        presumed dead and its shard reassigned.
    config:
        The :class:`~repro.engine.EngineConfig` describing ``welch``,
        serialized to remote daemons at handshake and the base of every
        quality variant.  Only needed when ``workers`` is non-empty or
        span batches carry variants.
    """

    def __init__(
        self,
        welch: WelchLomb | None = None,
        n_jobs: int | None = None,
        start_method: str | None = None,
        min_windows_per_shard: int = DEFAULT_MIN_WINDOWS_PER_SHARD,
        oversubscription: int = DEFAULT_OVERSUBSCRIPTION,
        chunk_windows: int | None = None,
        provider: str | None = None,
        arena: bool = True,
        workers: Sequence[str] = (),
        worker_timeout: float = DEFAULT_TIMEOUT,
        config=None,
    ):
        self.welch = welch if welch is not None else WelchLomb()
        if n_jobs is None:
            n_jobs = os.cpu_count() or 1
        if n_jobs < 1:
            raise ConfigurationError(f"n_jobs must be >= 1, got {n_jobs}")
        self.n_jobs = int(n_jobs)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self.min_windows_per_shard = int(min_windows_per_shard)
        self.oversubscription = int(oversubscription)
        self._chunk_windows = chunk_windows
        self._provider = provider
        self._arena = bool(arena)
        self.workers = tuple(workers or ())
        for address in self.workers:
            parse_address(address)  # reject malformed addresses up front
        self.worker_timeout = float(worker_timeout)
        self._config = config
        if self.workers and config is None:
            raise ConfigurationError(
                "remote workers need the EngineConfig that describes the "
                "engine: pass config=, or build the runner via from_config()"
            )
        self._pool = None
        self._pool_key: tuple[int, str] | None = None
        self._pool_finalizer: weakref.finalize | None = None
        self._pool_processes: list = []
        self._progress = None
        self._progress_lock = threading.Lock()
        self._last_task_by_pid: dict[int, int] = {}
        # _remotes is the *live* set one run schedules onto; the
        # registry keeps every RemoteWorker ever dialled so cumulative
        # transport counters (bytes, reconnects) survive close() and
        # between-run disconnects.
        self._remotes: dict[str, RemoteWorker] = {}
        self._remote_registry: dict[str, RemoteWorker] = {}
        self._remote_ever: set[str] = set()
        self._remote_key: tuple[int, str] | None = None

    @classmethod
    def from_config(cls, config, welch: WelchLomb | None = None, **kwargs):
        """Runner matching one :class:`~repro.engine.EngineConfig`.

        Execution settings (jobs, chunk size, provider) are resolved
        through the config's documented precedence chain; ``welch``
        defaults to the engine the config's system kind and geometry
        describe.  The engine facade
        (:meth:`repro.engine.Engine.analyze_cohort`) is the usual owner
        of a runner built this way — it keeps the pool persistent
        across cohort calls.
        """
        if welch is None:
            from ..engine.engine import build_system

            welch = build_system(config).welch
        resolved = config.resolve()
        kwargs.setdefault("workers", getattr(resolved, "workers", ()))
        kwargs.setdefault("config", config)
        return cls(
            welch=welch,
            n_jobs=resolved.jobs,
            chunk_windows=resolved.chunk_windows,
            provider=resolved.provider,
            arena=getattr(config, "arena", True),
            **kwargs,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(recording):
        """Accept an :class:`RRSeries` or a ``(times, values)`` pair.

        Returns ``(times, values, corrected)``; the mask is ``None``
        unless the recording is an :class:`RRSeries` carrying one.
        """
        if isinstance(recording, RRSeries):
            return recording.times, recording.intervals, recording.corrected
        try:
            times, values = recording
        except (TypeError, ValueError):
            raise SignalError(
                "recordings must be RRSeries or (times, values) pairs"
            ) from None
        return times, values, None

    def run(self, recordings, count_ops: bool = False) -> list[WelchLombResult]:
        """Analyse a cohort; one :class:`WelchLombResult` per recording."""
        return list(self.run_report(recordings, count_ops=count_ops).results)

    def run_report(self, recordings, count_ops: bool = False) -> FleetReport:
        """:meth:`run` plus the execution geometry (shards, jobs, chunk)."""
        pairs = [self._coerce(recording) for recording in recordings]
        if not pairs:
            raise SignalError("cohort is empty: nothing to analyse")
        plans = [
            self.welch.plan_windows(t, x, corrected=c) for t, x, c in pairs
        ]
        for plan in plans:
            if not plan.spans:
                raise SignalError(
                    "no analysable windows: recording too short or too sparse"
                )
        shards = plan_shards(
            [plan.n_windows for plan in plans],
            self.n_jobs + len(self.workers),
            min_windows_per_shard=self.min_windows_per_shard,
            oversubscription=self.oversubscription,
        )
        chunk, provider = self._resolve_execution()
        # Shard geometry above counted the remote slots; spectra merge
        # in task order, so which slot ran which shard can never change
        # the result.
        arrays: list[np.ndarray] = []
        keys: list[tuple[int, int, int | None]] = []
        for plan in plans:
            t_key = len(arrays)
            arrays.append(plan.times)
            x_key = len(arrays)
            arrays.append(plan.values)
            c_key = None
            if plan.corrected is not None:
                c_key = len(arrays)
                arrays.append(plan.corrected)
            keys.append((t_key, x_key, c_key))
        tasks = [
            SpanTask(
                task_id=shard_id,
                times_key=keys[shard.recording][0],
                values_key=keys[shard.recording][1],
                spans=plans[shard.recording].spans[shard.lo : shard.hi],
                count_ops=count_ops,
                corrected_key=keys[shard.recording][2],
            )
            for shard_id, shard in enumerate(shards)
        ]
        packed, n_remote = self._run_scheduled(arrays, tasks, chunk, provider)
        results = self._merge(plans, shards, packed, count_ops)
        return FleetReport(
            results=tuple(results),
            n_jobs=self.n_jobs,
            n_shards=len(shards),
            chunk_windows=chunk,
            start_method=self.start_method if self.n_jobs > 1 else None,
            provider=provider,
            n_remote_workers=n_remote,
        )

    def close(self) -> None:
        """Shut the pool and remote connections down (idempotent)."""
        self._close_remotes()
        self._detach_finalizer()
        pool, self._pool = self._pool, None
        self._pool_key = None
        self._pool_processes = []
        self._progress = None
        if pool is not None:
            pool.close()
            pool.join()

    def _close_remotes(self) -> None:
        """Say goodbye to every connected remote daemon (best-effort).

        Connections close; the worker handles stay in the registry so
        their cumulative counters keep accumulating across reconnects.
        """
        self._remotes = {}
        self._remote_key = None
        for worker in self._remote_registry.values():
            worker.close()

    def transport_stats(self) -> dict[str, dict[str, int]]:
        """Cumulative transport counters per remote worker ever dialled.

        Per address: ``bytes_sent`` / ``bytes_received`` (wire traffic,
        cumulative across reconnects — used by the fleet benchmark to
        quantify serialization overhead per window), ``reconnects``
        (successful re-connections after the first) and
        ``connect_failures`` (failed dial attempts).  Empty when no
        remote workers were ever configured.
        """
        return {
            address: {
                "bytes_sent": worker.bytes_sent,
                "bytes_received": worker.bytes_received,
                "reconnects": worker.reconnects,
                "connect_failures": worker.connect_failures,
            }
            for address, worker in self._remote_registry.items()
        }

    def _detach_finalizer(self) -> None:
        finalizer, self._pool_finalizer = self._pool_finalizer, None
        if finalizer is not None:
            finalizer.detach()

    def _discard_pool(self) -> None:
        """Tear the live pool down hard and forget every handle to it.

        The failure path: queued sibling tasks must not keep running
        against unlinked shared memory, and both ``_pool`` *and*
        ``_pool_key`` must be cleared together — a stale key paired
        with a fresh pool would claim the wrong execution settings.
        """
        self._detach_finalizer()
        pool, self._pool = self._pool, None
        self._pool_key = None
        self._pool_processes = []
        self._progress = None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "FleetRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _resolve_execution(self) -> tuple[int, str]:
        """Resolve the (chunk, provider) pair one run executes under.

        Shared by every entry point (:meth:`run_report`,
        :meth:`run_spans`): the provider is resolved once, in the
        parent, so every process — including this one on the
        in-process paths — runs the same engine (results are
        provider-dependent at the ulp level; one fleet must round one
        way).
        """
        workspace = self.welch.analyzer.workspace_size
        chunk = (
            self._chunk_windows
            if self._chunk_windows is not None
            else get_batch_chunk_windows(workspace)
        )
        return chunk, resolve_provider_name(self._provider, workspace)

    def _ensure_pool(self, chunk: int, provider: str):
        """Create (or reuse) the persistent worker pool.

        The pool outlives individual :meth:`run` calls so repeated
        cohort runs — the serving pattern — pay the fork/initialise
        cost once.  Pre-fork warm-up happens right before creation:
        with the fork start method the workers inherit every plan-cache
        table — including the resolved provider's per-size execution
        state — copy-on-write, so nothing is re-derived N-workers
        times.  (Plan objects themselves were built when the engine was
        constructed.)
        """
        if self._pool is not None and self._pool_key == (chunk, provider):
            return self._pool
        self.close()
        analyzer = self.welch.analyzer
        warm_execution_caches(analyzer.workspace_size, analyzer.order, provider)
        ctx = multiprocessing.get_context(self.start_method)
        self._progress = ctx.Queue()
        self._last_task_by_pid = {}
        self._pool = ctx.Pool(
            processes=self.n_jobs,
            initializer=init_worker,
            initargs=(
                self.welch, chunk, provider, self._arena, self._progress,
                self._config,
            ),
        )
        self._pool_key = (chunk, provider)
        # Hold our own references to the worker Process objects: the
        # pool quietly replaces dead workers in its internal list, but
        # these handles keep reporting the original pid and exit code,
        # which is what the death watchdog needs to name the culprit.
        self._pool_processes = list(getattr(self._pool, "_pool", []))
        # Safety net for abandoned runners: if this runner is garbage
        # collected (or the interpreter exits) with the pool still
        # live, tear it down rather than strand the workers.  close()
        # detaches this, so an orderly release never terminates.
        self._pool_finalizer = weakref.finalize(
            self, _terminate_abandoned_pool, self._pool
        )
        return self._pool

    def _drain_progress(self) -> None:
        """Absorb queued ``(pid, task_id)`` task-start records."""
        progress = self._progress
        if progress is None:
            return
        with self._progress_lock:
            while True:
                try:
                    pid, task_id = progress.get_nowait()
                except queue_module.Empty:
                    return
                except (EOFError, OSError):  # queue torn down under us
                    return
                self._last_task_by_pid[pid] = task_id

    def _raise_if_pool_worker_died(self) -> None:
        """Turn a silently vanished pool worker into an actionable error.

        ``multiprocessing.Pool`` never errors a job whose worker died —
        the result simply never arrives and collection blocks forever.
        The watchdog checks the held worker-process handles and raises a
        :class:`RuntimeError` naming the dead worker's pid, its exit
        code, and the last task it reported starting.
        """
        self._drain_progress()
        for process in self._pool_processes:
            code = process.exitcode
            if code is not None:
                last = self._last_task_by_pid.get(process.pid)
                held = "" if last is None else f" while running task {last}"
                raise RuntimeError(
                    f"fleet pool worker pid {process.pid} died with exit "
                    f"code {code}{held}: its results are lost and the run "
                    f"cannot complete"
                )

    @staticmethod
    def _flatten_collected(collected, slices) -> tuple[list, tuple]:
        """Scatter per-slice packed results back into span order.

        ``slices`` holds each slice's ``(variant, span indices)``, in
        the order of ``collected``.
        """
        order = [i for _variant, indices in slices for i in indices]
        spectra: list = [None] * len(order)
        metrics: list = [None] * len(order)
        flat_spectra = (
            spectrum
            for packed, _metrics in collected
            for spectrum in unpack_spectra(packed)
        )
        flat_metrics = (
            window
            for _packed, packed_metrics in collected
            for window in unpack_metrics(packed_metrics)
        )
        for i, spectrum, window in zip(order, flat_spectra, flat_metrics):
            spectra[i] = spectrum
            metrics[i] = window
        return spectra, tuple(metrics)

    def run_spans(
        self, times, values, spans, count_ops: bool = False, variants=None,
        corrected=None,
    ) -> tuple[list, tuple]:
        """Analyse one flat span batch, split across the fleet's slots.

        The streaming hub's execution path: ``times``/``values`` are one
        validated sample array pair — typically many subjects' completed
        windows concatenated back to back — and ``spans`` are its
        ``[start, stop)`` window ranges.  A batch big enough to split
        over more than one slot becomes one task per slice, run by the
        same scheduler as :meth:`run` (the **persistent** worker pool,
        created on first use, and any remote workers), and the spectra
        come back in span order; a batch too small to split runs as one
        in-process call.  Either way the result is bit-identical to a
        single in-process
        :func:`~repro.lomb.welch.analyze_spans_quality` call: every
        kernel is batch-composition-independent and every process is
        pinned to the same provider and chunk size.

        ``variants`` names each span's quality level: ``None`` for the
        base engine, else a ``(system_kind, PruningSpec)`` ladder rung
        (``variants=None`` runs every span at the base).  In-process the
        whole batch is one kernel call with per-span FFT owners.  Split
        batches hold one level per slice: the spans are grouped by
        variant, each group is sliced, and every slice carries its
        variant to an executor that resolves it through the same
        process-wide variant memo — so a level-M span is bit-identical
        across the in-process, shm-pool and socket transports, exactly
        like the base engine.

        ``corrected`` is the optional interpolated-beat 0/1 mask
        aligned with ``values``; it travels to the executors exactly
        like the sample arrays.  Returns ``(spectra, metrics)`` with
        one :class:`~repro.hrv.metrics.WindowMetrics` per span.
        """
        spans = tuple(spans)
        if not spans:
            return [], ()
        if variants is None:
            variants = (None,) * len(spans)
        elif len(variants) != len(spans):
            raise ConfigurationError(
                f"{len(variants)} variants for {len(spans)} spans"
            )
        chunk, provider = self._resolve_execution()
        n_slots = self.n_jobs + len(self.workers)

        def n_slices(n_spans: int) -> int:
            return max(1, min(n_slots, n_spans // MIN_SPANS_PER_SLICE))

        if n_slices(len(spans)) == 1:
            # n_jobs == 1, or a batch too small to split: a single
            # pool slice would pay shm setup + IPC per flush for work
            # the (identically pinned, hence bit-identical) in-process
            # call does cheaper.
            analyzers = {
                variant: resolve_variant(
                    self.welch, self._config, variant
                ).analyzer
                for variant in set(variants)
            }
            with pinned_execution(provider, chunk):
                return analyze_spans_quality(
                    self.welch.analyzer, times, values, spans, count_ops,
                    corrected=corrected,
                    owners=[analyzers[variant] for variant in variants],
                )
        by_variant: dict = {}
        for i, variant in enumerate(variants):
            by_variant.setdefault(variant, []).append(i)
        slices: list[tuple] = []
        for variant, indices in by_variant.items():
            k = n_slices(len(indices))
            bounds = [len(indices) * i // k for i in range(k + 1)]
            slices.extend(
                (variant, indices[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])
            )
        arrays = [np.asarray(times), np.asarray(values)]
        corrected_key = None
        if corrected is not None:
            corrected_key = len(arrays)
            arrays.append(np.asarray(corrected))
        tasks = [
            SpanTask(
                task_id=task_id,
                times_key=0,
                values_key=1,
                spans=tuple(spans[i] for i in indices),
                count_ops=count_ops,
                variant=variant,
                corrected_key=corrected_key,
            )
            for task_id, (variant, indices) in enumerate(slices)
        ]
        collected, _ = self._run_scheduled(arrays, tasks, chunk, provider)
        return self._flatten_collected(collected, slices)

    # -- distributed scheduling ----------------------------------------

    def _hello(self, chunk: int, provider: str) -> dict:
        """Handshake payload: config blob plus the parent-resolved pins.

        The daemon rebuilds the engine from the config but never
        re-resolves provider or chunk — two hosts may auto-probe
        differently, and one fleet must round one way.
        """
        return {
            "config": self._config.to_dict(),
            "provider": provider,
            "chunk_windows": int(chunk),
            "arena": self._arena,
        }

    def _ensure_remotes(self, chunk: int, provider: str) -> dict[str, RemoteWorker]:
        """Connect (or reuse) the remote workers for one run.

        A *first-ever* connection failure raises
        :class:`~repro.errors.ConfigurationError` — an address that has
        never answered is almost always a typo, and silently running
        without it would misreport capacity.  A worker that has served
        before and is now gone is a runtime fault: it is skipped for
        this run (and retried on the next), because absorbing degraded
        capacity is exactly what the fault-tolerant scheduler is for.
        """
        if self._remote_key != (chunk, provider):
            # Execution pins changed: every open session's handshake is
            # stale, so start the connections over.
            self._close_remotes()
            self._remote_key = (chunk, provider)
        hello = self._hello(chunk, provider)
        live: dict[str, RemoteWorker] = {}
        for address in self.workers:
            worker = self._remote_registry.get(address)
            if worker is None:
                worker = RemoteWorker(address, timeout=self.worker_timeout)
                self._remote_registry[address] = worker
            if worker.connected:
                try:
                    # Array keys are per-run indices: clear the daemon's
                    # uploads so this run's keys cannot alias last run's.
                    worker.reset_arrays()
                    live[address] = worker
                    continue
                except ConnectionError:
                    pass  # died between runs: fall through and reconnect
            try:
                worker.connect(hello)
            except ConnectionError as exc:
                if address not in self._remote_ever:
                    raise ConfigurationError(
                        f"fleet worker {address} is unreachable: {exc}"
                    ) from exc
                continue  # previously healthy: run degraded this time
            self._remote_ever.add(address)
            live[address] = worker
        self._remotes = live
        return live

    def _run_scheduled(
        self,
        arrays: list[np.ndarray],
        tasks: list[SpanTask],
        chunk: int,
        provider: str,
    ) -> tuple[list[tuple], int]:
        """Run tasks across the local slots and the remote daemons.

        Work-stealing over a :class:`_TaskBoard`: every slot claims
        tasks until none remain.  Remote death requeues the claimed
        task — results merge in task-id order and every kernel is
        batch-composition-independent, so re-running a task on a
        different slot cannot change the merged output — while
        deterministic failures abort the whole run.  The local slots
        never retire, so the board always drains even if every remote
        worker dies mid-run.

        Returns the packed results in task order plus the number of
        remote workers that participated.
        """
        remotes = self._ensure_remotes(chunk, provider) if self.workers else {}
        hello = self._hello(chunk, provider) if remotes else None
        board = _TaskBoard(len(tasks))
        threads: list[threading.Thread] = []
        with SharedRecordingStore() as store:
            if self.n_jobs > 1:
                pool = self._ensure_pool(chunk, provider)
                refs = [store.put(array) for array in arrays]
                for slot in range(_SLOTS_PER_POOL_PROCESS * self.n_jobs):
                    threads.append(
                        threading.Thread(
                            target=self._pool_slot_loop,
                            args=(board, pool, refs, tasks),
                            name=f"fleet-pool-slot-{slot}",
                            daemon=True,
                        )
                    )
            for address, worker in remotes.items():
                threads.append(
                    threading.Thread(
                        target=self._remote_loop,
                        args=(board, worker, arrays, tasks, hello),
                        name=f"fleet-remote-{address}",
                        daemon=True,
                    )
                )
            for thread in threads:
                thread.start()
            if self.n_jobs == 1:
                self._inprocess_loop(board, arrays, tasks, chunk, provider)
            board.wait()
            for thread in threads:
                thread.join()
        failure = board.failure
        if failure is not None:
            raise failure
        return board.results_in_order(), len(remotes)

    def _pool_slot_loop(self, board, pool, refs, tasks) -> None:
        """One local pool slot: claim a task, run it via the worker pool."""
        while True:
            task_id = board.claim()
            if task_id is None:
                return
            try:
                handle = pool.apply_async(
                    run_pool_task, (tasks[task_id], refs)
                )
                while True:
                    if board.failure is not None:
                        return  # run is already lost: stop polling
                    try:
                        packed = handle.get(timeout=_POOL_POLL_SECONDS)
                        break
                    except multiprocessing.TimeoutError:
                        self._raise_if_pool_worker_died()
            except BaseException as exc:
                # Pool worker death or a deterministic task failure:
                # either way the local pool can no longer be trusted
                # with this run's queued siblings.
                self._discard_pool()
                board.abort(exc)
                return
            board.complete(task_id, packed)

    def _inprocess_loop(self, board, arrays, tasks, chunk, provider) -> None:
        """The ``n_jobs == 1`` local slot: run claimed tasks right here."""
        try:
            with pinned_execution(provider, chunk):
                while True:
                    task_id = board.claim()
                    if task_id is None:
                        return
                    board.complete(
                        task_id,
                        execute_task(
                            tasks[task_id], arrays, self.welch, self._config
                        ),
                    )
        except BaseException as exc:
            board.abort(exc)

    def _remote_loop(self, board, worker, arrays, tasks, hello) -> None:
        """One remote slot: ship claimed tasks; rejoin if the worker dies.

        A :class:`ConnectionError` requeues the claimed task
        immediately (a local slot guarantees the board drains even if
        this worker never comes back), then tries to *rejoin*:
        :meth:`RemoteWorker.reconnect` re-dials with bounded backoff,
        :meth:`RemoteWorker.reset_arrays` confirms the new session with
        a ping/pong, and the slot resumes claiming — its array uploads
        rebuild lazily on first reference.  If the rejoin fails the
        slot retires for this run and the next run reconnects.
        """
        claimed: int | None = None
        while True:
            try:
                while True:
                    claimed = board.claim()
                    if claimed is None:
                        return
                    task = tasks[claimed]
                    for key in task.array_keys:
                        worker.ensure_array(key, arrays[key])
                    packed = worker.run_task(
                        task.task_id,
                        task.times_key,
                        task.values_key,
                        task.spans,
                        task.count_ops,
                        variant=task.variant,
                        corrected_key=task.corrected_key,
                    )
                    board.complete(claimed, packed)
                    claimed = None
            except ConnectionError:
                if claimed is not None:
                    board.requeue(claimed)
                    claimed = None
                if board.failure is not None:
                    return  # run already lost: no point rejoining
                try:
                    worker.reconnect(hello)
                    worker.reset_arrays()
                except (ConnectionError, ConfigurationError):
                    return  # rejoin failed: retire for this run
            except BaseException as exc:
                # RemoteTaskError and friends are deterministic — the
                # task would fail identically on any slot, so abort the
                # run instead of bouncing it between workers.
                board.abort(exc)
                return

    def _merge(
        self,
        plans: list[RecordingWindows],
        shards,
        packed: list[tuple],
        count_ops: bool,
    ) -> list[WelchLombResult]:
        """Reassemble per-shard spectra into per-recording results.

        Shards are emitted grouped by recording and ordered by ``lo``
        (:func:`plan_shards`), so concatenating in dispatch order
        restores every recording's window order (spectra and metrics
        alike); the final assembly is the exact single-process back end.
        """
        spectra_per_recording: list[list] = [[] for _ in plans]
        metrics_per_recording: list[list] = [[] for _ in plans]
        for shard, (shard_packed, shard_metrics) in zip(shards, packed):
            spectra_per_recording[shard.recording].extend(
                unpack_spectra(shard_packed)
            )
            metrics_per_recording[shard.recording].extend(
                unpack_metrics(shard_metrics)
            )
        return [
            assemble_result(
                spectra, plan.centers, plan.skipped, count_ops,
                metrics=metrics,
            )
            for spectra, metrics, plan in zip(
                spectra_per_recording, metrics_per_recording, plans
            )
        ]
