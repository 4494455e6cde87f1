"""Fleet-scale sharded execution of the windowed-PSA engine.

:class:`FleetRunner` runs many recordings — or the window shards of one
huge recording, or one span batch split into slices — across local pool
processes, the calling process and remote worker daemons, all by one
path.  It is built from one :class:`~repro.engine.EngineConfig`, pinned
once to what it resolves (:meth:`~repro.engine.EngineConfig.pinned`);
that pinned copy is the whole description of a run, handed as it is to
every pool process and worker daemon:

1. the parent validates every recording and lays out its windows
   (:meth:`WelchLomb.plan_windows`), then shards the kept windows into
   contiguous ranges (:mod:`repro.fleet.sharding`);
2. every shard, like every slice of a split span batch, becomes one
   :class:`~repro.fleet.worker.SpanTask` over keyed sample arrays;
3. slots claim the tasks from a work-stealing board
   (:class:`_TaskBoard`): two threads per pool process, so one task
   waits in the pool's queue behind each running one; the calling
   thread when ``jobs == 1``; one thread per remote worker.  Pool
   slots pass the arrays through POSIX shared memory
   (:mod:`repro.fleet.shm`), workers slicing windows out of the mapped
   blocks zero-copy; remote slots upload each array once per
   connection.  Every slot runs
   :func:`~repro.fleet.worker.execute_task`;
4. tasks return the kernel's column batches as they are; each
   recording's are concatenated in task order and fed through the same
   :func:`~repro.lomb.welch.assemble_result` back end as the
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
import queue as queue_module
import threading
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing.pool import TERMINATE as POOL_TERMINATE

import numpy as np

from ..engine.config import EngineConfig
from ..engine.engine import build_system, span_owners
from ..errors import ConfigurationError, SignalError
from ..hrv.metrics import MetricsBatch
from ..hrv.rr import RRSeries
from ..lomb.fast import LombBatch
from ..lomb.welch import (
    RecordingWindows,
    WelchLombResult,
    analyze_spans_quality,
    assemble_result,
)
from ..ffts.plancache import warm_execution_caches
from ..perf.context import execution
from .remote import RemoteWorker
from .sharding import (
    DEFAULT_MIN_WINDOWS_PER_SHARD,
    DEFAULT_OVERSUBSCRIPTION,
    plan_shards,
)
from .shm import SharedRecordingStore
from .worker import SpanTask, execute_task, init_worker, run_pool_task

__all__ = ["FleetReport", "FleetRunner"]

#: Fewest windows a :meth:`FleetRunner.run_spans` pool slice may carry —
#: below this, splitting a span batch across more workers costs more in
#: task dispatch than the extra parallelism recovers.
MIN_SPANS_PER_SLICE = 8

#: Seconds between result polls while watching the pool for dead workers.
_POOL_POLL_SECONDS = 0.2

#: Seconds a pool teardown may take before the workers still running
#: are killed and the queue locks a dead worker left held are freed
#: (see :func:`_teardown_pool`).
_POOL_TEARDOWN_SECONDS = 5.0

#: Board slots per pool process.  With two, one task waits in the pool's
#: queue behind each running one, so a worker starts its next task the
#: moment it finishes one instead of idling for a result round trip.
_SLOTS_PER_POOL_PROCESS = 2

#: Start method of the worker pool: ``fork`` where available, so the
#: workers inherit the warmed plan caches copy-on-write.
START_METHOD = (
    "fork"
    if "fork" in multiprocessing.get_all_start_methods()
    else multiprocessing.get_all_start_methods()[0]
)


def _terminate_abandoned_pool(pool) -> None:
    """`weakref.finalize` safety net for unreleased worker pools.

    A :class:`FleetRunner` (or the :class:`~repro.engine.Engine` that
    owns one) abandoned without :meth:`FleetRunner.close` must not
    strand live worker processes — at garbage collection, and at
    interpreter exit at the latest (``weakref.finalize`` registers
    atexit), the pool is torn down hard, in bounded time.  No new thread
    may start at interpreter exit, so this cannot watch ``terminate()``
    from a helper thread as :func:`_teardown_pool` does: it kills the
    pool first (:func:`_kill_pool`), and ``terminate()`` then finds no
    worker alive and no lock held.
    """
    _kill_pool(pool)
    pool.terminate()
    pool.join()


def _kill_pool(pool) -> None:
    """Kill every worker and free the queue locks a dead one left held.

    CPython's teardown takes two locks the workers share: the task
    queue's read lock, which an idle worker holds while it waits for a
    task, and the result queue's write lock, which a worker holds while
    it sends a result.  A worker that died holding one leaves it held
    for good, and ``terminate()`` — or ``close()`` + ``join()`` — then
    blocks on it forever.  Once no worker is alive, no live process can
    release those locks, so each is released for it.
    """
    # terminate()'s own first step, taken early: the pool starts no
    # replacement for the workers killed here.
    pool._worker_handler._state = POOL_TERMINATE
    for process in list(pool._pool):
        process.kill()
        process.join(_POOL_TEARDOWN_SECONDS)
    for lock in (pool._inqueue._rlock, pool._outqueue._wlock):
        # Acquired or not, release: either this thread's own hold or
        # one whose holder is dead.
        lock.acquire(timeout=_POOL_POLL_SECONDS)
        try:
            lock.release()
        except ValueError:  # its holder released it meanwhile
            pass


def _join_pool(pool, graceful: bool) -> None:
    if graceful:
        pool.close()
    else:
        pool.terminate()
    pool.join()


def _teardown_pool(pool, graceful: bool = False) -> None:
    """Close (*graceful*) or terminate the pool and join it, in bounded time.

    The teardown runs on a helper thread for up to
    :data:`_POOL_TEARDOWN_SECONDS`, then :func:`_kill_pool` frees what it
    waits on and, even after it finished, any queue lock a dead worker
    held (CPython's pool finalizer takes it, untimed, at collection).
    """
    helper = threading.Thread(
        target=_join_pool,
        args=(pool, graceful),
        name="fleet-pool-teardown",
        daemon=True,
    )
    helper.start()
    helper.join(_POOL_TEARDOWN_SECONDS)
    _kill_pool(pool)
    helper.join(_POOL_TEARDOWN_SECONDS)


def _concat(results) -> tuple[LombBatch, MetricsBatch]:
    """Several tasks' ``(LombBatch, MetricsBatch)`` results, in order, as one."""
    spectra, metrics = zip(*results)
    return LombBatch.concat(spectra), MetricsBatch.concat(metrics)


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
    config:
        The :class:`~repro.engine.EngineConfig` to run.  It is resolved
        once, here, like an engine's (config field, then environment,
        then default — never the current execution context), and the
        pinned copy (:meth:`EngineConfig.pinned`) is :attr:`config`:
        the system it describes is :attr:`welch`, its ``jobs`` are the
        pool processes (1 runs in this process), its ``workers`` the
        remote :class:`~repro.fleet.remote.WorkerDaemon` addresses
        scheduled alongside them, and its provider and chunk size pin
        every process, so all shards round identically — which keeps
        sharded results bit-identical to single-process ones under
        every provider.  Pool processes and daemons build their state
        from the same pinned copy; each gets a
        :class:`~repro.perf.WorkspaceArena` of its own when
        ``config.arena`` is set.  An :class:`~repro.engine.Engine`
        builds its runner from its own config pinned to what it
        resolved.
    """

    def __init__(self, config: EngineConfig):
        if not isinstance(config, EngineConfig):
            raise ConfigurationError(
                f"config must be an EngineConfig, got {type(config).__name__}"
            )
        self.config = config.pinned()
        self.welch = build_system(self.config).welch
        self._pool = None
        self._pool_finalizer: weakref.finalize | None = None
        self._pool_processes: list = []
        self._progress = None
        self._progress_lock = threading.Lock()
        self._last_task_by_pid: dict[int, int] = {}
        # Every RemoteWorker ever dialled, so cumulative transport
        # counters (bytes, reconnects) survive close() and between-run
        # disconnects.
        self._remote_registry: dict[str, RemoteWorker] = {}
        self._remote_ever: set[str] = set()

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
        # Module globals, read per run (a test can monkeypatch them).
        shards = plan_shards(
            [plan.n_windows for plan in plans],
            self.config.jobs + len(self.config.workers),
            min_windows_per_shard=DEFAULT_MIN_WINDOWS_PER_SHARD,
            oversubscription=DEFAULT_OVERSUBSCRIPTION,
        )
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
        batches, n_remote = self._run_scheduled(arrays, tasks)
        results = self._merge(plans, shards, batches, count_ops)
        return FleetReport(
            results=tuple(results),
            n_jobs=self.config.jobs,
            n_shards=len(shards),
            chunk_windows=self.config.chunk_windows,
            start_method=START_METHOD if self.config.jobs > 1 else None,
            provider=self.config.provider,
            n_remote_workers=n_remote,
        )

    def close(self) -> None:
        """Shut the pool and remote connections down (idempotent).

        The pool closes gracefully, its workers exiting once idle,
        within :data:`_POOL_TEARDOWN_SECONDS`; past that its workers
        are killed and the queue locks a dead worker left held are
        freed (:func:`_teardown_pool`), so a dead worker cannot make
        ``close()`` — which the gateway calls on its event loop — hang.
        """
        self._close_remotes()
        self._detach_finalizer()
        pool, self._pool = self._pool, None
        self._pool_processes = []
        self._progress = None
        if pool is not None:
            _teardown_pool(pool, graceful=True)

    def _close_remotes(self) -> None:
        """Say goodbye to every connected remote daemon (best-effort).

        Connections close; the worker handles stay in the registry so
        their cumulative counters keep accumulating across reconnects.
        """
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
        against unlinked shared memory, so the next run starts a fresh
        pool.  The teardown returns even when a dead worker left one of
        the pool's queue locks held (:func:`_teardown_pool`), so the run
        still raises its original error instead of hanging.
        """
        self._detach_finalizer()
        pool, self._pool = self._pool, None
        self._pool_processes = []
        self._progress = None
        if pool is not None:
            _teardown_pool(pool)

    def __enter__(self) -> "FleetRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _ensure_pool(self):
        """Create (or reuse) the persistent worker pool.

        The pool outlives individual :meth:`run` calls so repeated
        cohort runs — the serving pattern — pay the fork/initialise
        cost once.  Pre-fork warm-up happens right before creation:
        with the fork start method the workers inherit every plan-cache
        table — including the pinned provider's per-size execution
        state — copy-on-write, so nothing is re-derived N-workers
        times.  Every worker builds its state from :attr:`config`
        (:func:`~repro.fleet.worker.init_worker`).
        """
        if self._pool is not None:
            return self._pool
        analyzer = self.welch.analyzer
        warm_execution_caches(
            analyzer.workspace_size, analyzer.order, self.config.provider
        )
        ctx = multiprocessing.get_context(START_METHOD)
        self._progress = ctx.Queue()
        self._last_task_by_pid = {}
        self._pool = ctx.Pool(
            processes=self.config.jobs,
            initializer=init_worker,
            initargs=(self.config, self._progress),
        )
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

    def run_spans(
        self, times, values, spans, count_ops: bool = False, variants=None,
        corrected=None,
    ) -> tuple[LombBatch, MetricsBatch]:
        """Analyse one flat span batch, split across the fleet's slots.

        The streaming hub's execution path: ``times``/``values`` are one
        sample array pair — typically many subjects' completed windows
        concatenated back to back — and ``spans`` its ``[start, stop)``
        window ranges.  A batch big enough to split becomes one task per
        contiguous slice, run by the same scheduler as :meth:`run` (the
        **persistent** worker pool and any remote workers), whose
        batches are concatenated in span order; a smaller batch is one
        in-process call.  Either way the result is bit-identical to one
        :func:`~repro.lomb.welch.analyze_spans_quality` call: every
        kernel is batch-composition-independent and every process is
        pinned to the same provider and chunk size.

        ``variants`` names each span's quality level (``None`` for the
        base engine, else a ``(system_kind, PruningSpec)`` ladder rung)
        and travels with its slice; every executor resolves it with
        :func:`~repro.engine.engine.span_owners`.  ``corrected`` is the
        optional interpolated-beat 0/1 mask aligned with ``values``.
        Returns the ``(LombBatch, MetricsBatch)`` pair, one row per span.
        """
        spans = tuple(spans)
        if not spans:
            return LombBatch.stack(), MetricsBatch.stack()
        if variants is not None and len(variants) != len(spans):
            raise ConfigurationError(
                f"{len(variants)} variants for {len(spans)} spans"
            )
        config = self.config
        n_slots = config.jobs + len(config.workers)
        n_slices = max(1, min(n_slots, len(spans) // MIN_SPANS_PER_SLICE))
        if n_slices == 1:
            # jobs == 1, or a batch too small to split: a single pool
            # slice would pay shm setup + IPC per flush for work the
            # (identically pinned, hence bit-identical) in-process call
            # does cheaper.
            with execution(
                provider=config.provider, chunk_windows=config.chunk_windows
            ):
                return analyze_spans_quality(
                    self.welch.analyzer, times, values, spans, count_ops,
                    corrected=corrected,
                    owners=span_owners(self.welch, config, variants),
                )
        arrays = [np.asarray(times), np.asarray(values)]
        corrected_key = None
        if corrected is not None:
            corrected_key = len(arrays)
            arrays.append(np.asarray(corrected))
        bounds = [len(spans) * i // n_slices for i in range(n_slices + 1)]
        tasks = [
            SpanTask(
                task_id=task_id,
                times_key=0,
                values_key=1,
                spans=spans[lo:hi],
                count_ops=count_ops,
                variants=None if variants is None else tuple(variants[lo:hi]),
                corrected_key=corrected_key,
            )
            for task_id, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]
        return _concat(self._run_scheduled(arrays, tasks)[0])

    # -- distributed scheduling ----------------------------------------

    def _ensure_remotes(self) -> dict[str, RemoteWorker]:
        """Connect (or reuse) the remote workers for one run.

        A *first-ever* connection failure raises
        :class:`~repro.errors.ConfigurationError` — an address that has
        never answered is almost always a typo, and silently running
        without it would misreport capacity.  A worker that has served
        before and is now gone is a runtime fault: it is skipped for
        this run (and retried on the next), because absorbing degraded
        capacity is exactly what the fault-tolerant scheduler is for.
        """
        live: dict[str, RemoteWorker] = {}
        for address in self.config.workers:
            worker = self._remote_registry.get(address)
            if worker is None:
                worker = RemoteWorker(
                    address, timeout=self.config.worker_timeout
                )
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
                worker.connect(self.config)
            except ConnectionError as exc:
                if address not in self._remote_ever:
                    raise ConfigurationError(
                        f"fleet worker {address} is unreachable: {exc}"
                    ) from exc
                continue  # previously healthy: run degraded this time
            self._remote_ever.add(address)
            live[address] = worker
        return live

    def _run_scheduled(
        self, arrays: list[np.ndarray], tasks: list[SpanTask]
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

        Returns every task's ``(LombBatch, MetricsBatch)`` in task
        order plus the number of remote workers that participated.
        """
        jobs = self.config.jobs
        remotes = self._ensure_remotes() if self.config.workers else {}
        board = _TaskBoard(len(tasks))
        threads: list[threading.Thread] = []
        with SharedRecordingStore() as store:
            if jobs > 1:
                pool = self._ensure_pool()
                refs = [store.put(array) for array in arrays]
                for slot in range(_SLOTS_PER_POOL_PROCESS * jobs):
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
                        args=(board, worker, arrays, tasks),
                        name=f"fleet-remote-{address}",
                        daemon=True,
                    )
                )
            for thread in threads:
                thread.start()
            if jobs == 1:
                self._inprocess_loop(board, arrays, tasks)
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
                        result = handle.get(timeout=_POOL_POLL_SECONDS)
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
            board.complete(task_id, result)

    def _inprocess_loop(self, board, arrays, tasks) -> None:
        """The ``jobs == 1`` local slot: run claimed tasks right here."""
        config = self.config
        try:
            with execution(
                provider=config.provider, chunk_windows=config.chunk_windows
            ):
                while True:
                    task_id = board.claim()
                    if task_id is None:
                        return
                    result = execute_task(
                        tasks[task_id], arrays, self.welch, config
                    )
                    board.complete(task_id, result)
        except BaseException as exc:
            board.abort(exc)

    def _remote_loop(self, board, worker, arrays, tasks) -> None:
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
                    board.complete(claimed, worker.run_task(task))
                    claimed = None
            except ConnectionError:
                if claimed is not None:
                    board.requeue(claimed)
                    claimed = None
                if board.failure is not None:
                    return  # run already lost: no point rejoining
                try:
                    worker.reconnect(self.config)
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
        batches: list[tuple],
        count_ops: bool,
    ) -> list[WelchLombResult]:
        """Reassemble per-shard batches into per-recording results.

        Shards are emitted grouped by recording and ordered by ``lo``
        (:func:`plan_shards`), so concatenating each recording's shard
        batches in dispatch order restores its window order (spectra
        and metrics alike); the final assembly is the exact
        single-process back end.
        """
        per_recording: list[list] = [[] for _ in plans]
        for shard, result in zip(shards, batches):
            per_recording[shard.recording].append(result)
        return [
            assemble_result(
                spectra, plan.centers, plan.skipped, count_ops, metrics=metrics
            )
            for (spectra, metrics), plan in zip(map(_concat, per_recording), plans)
        ]
