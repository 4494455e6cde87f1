"""The fleet's one task shape and its one executor.

Every unit of fleet work — a window shard of a cohort recording, or a
slice of a span batch split across slots — is a :class:`SpanTask`:
spans over sample arrays named by key, a ``count_ops`` flag, optional
per-span quality variants and an optional interpolated-beat mask key.
Every slot runs it with :func:`execute_task`, one
:func:`~repro.lomb.welch.analyze_spans_quality` call whose
``(LombBatch, MetricsBatch)`` columns cross processes as they are.  The
slots differ only in how the arrays arrive:

* a pool worker — initialised once (:func:`init_worker`) — attaches
  them from shared memory (:func:`run_pool_task`);
* the runner's in-process slot hands them over directly;
* a remote :class:`~repro.fleet.remote.WorkerDaemon` holds the copies
  its client uploaded.

Pool processes and daemon connections build their engine and execution
context one way, :func:`worker_state`, from the runner's pinned
:class:`~repro.engine.EngineConfig`.  With the ``fork`` start method
every plan-cache table is inherited copy-on-write from the warmed
parent; with ``spawn`` the initializer warms this process's own caches.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..engine.engine import build_system, span_owners
from ..errors import ConfigurationError
from ..ffts.plancache import warm_execution_caches
from ..hrv.metrics import MetricsBatch
from ..lomb.fast import LombBatch
from ..lomb.welch import WelchLomb, analyze_spans_quality
from ..perf.context import ExecutionContext, set_execution
from ..perf.workspace import WorkspaceArena
from .shm import attach_array

__all__ = [
    "SpanTask",
    "execute_task",
    "init_worker",
    "run_pool_task",
    "worker_state",
]

#: Per-process state installed by :func:`init_worker`.
_STATE: dict = {}


@dataclass(frozen=True)
class SpanTask:
    """The fleet's one unit of work: spans over keyed sample arrays.

    A cohort shard and a slice of a split span batch are both one of
    these.  The arrays themselves travel by key — as shared-memory refs
    to a pool worker, uploaded once per connection to a remote daemon,
    or as the arrays themselves to the in-process slot — and every
    executor runs :func:`execute_task` on it.

    Attributes
    ----------
    task_id:
        Position of this task in the run (results merge in this order).
    times_key, values_key:
        Keys of the sample arrays the spans index.
    spans:
        Sample-index ``[start, stop)`` ranges of this task's windows.
    count_ops:
        Compute every window's executed operation counts.
    variants:
        ``None`` (every span at the base engine) or one quality variant
        per span: ``None`` or a ``(system_kind, PruningSpec)`` rung.
    corrected_key:
        Key of the interpolated-beat 0/1 mask, or ``None`` when the
        arrays carry no provenance.
    """

    task_id: int
    times_key: int
    values_key: int
    spans: tuple[tuple[int, int], ...]
    count_ops: bool
    variants: tuple | None = None
    corrected_key: int | None = None

    @property
    def array_keys(self) -> tuple[int, ...]:
        """Keys of every array this task reads."""
        keys = (self.times_key, self.values_key)
        if self.corrected_key is None:
            return keys
        return keys + (self.corrected_key,)


def worker_state(config, arena: WorkspaceArena | None = None):
    """A fleet worker's ``(welch, context)``, built from a pinned config.

    The one builder behind both kinds of worker: a pool process
    (:func:`init_worker`) and a daemon connection
    (:class:`~repro.fleet.remote.WorkerDaemon`).  ``config`` is the
    scheduler's :class:`~repro.engine.EngineConfig`, pinned
    (:meth:`~repro.engine.EngineConfig.pinned`): its provider and chunk
    size are used as they are, never re-resolved — two hosts may pin
    different environments, and results depend on the provider
    (different engines round differently), so one fleet must round one
    way.  An unpinned
    config is a :class:`~repro.errors.ConfigurationError`.

    Builds the config's system, warms the provider's plan caches and
    returns the system's Welch engine with the
    :class:`~repro.perf.ExecutionContext` its tasks run under.  When
    ``config.arena`` is set the context leases from ``arena`` (a new
    :class:`~repro.perf.WorkspaceArena` when ``None``), pre-warmed with
    two float64 and two complex128 ``(chunk, workspace)`` matrices, the
    dense kernel's hottest shapes, so even a worker's first task reuses
    pooled buffers (arenas never change results; the kernels run the
    same operations either way).
    """
    if config.provider is None or config.chunk_windows is None:
        raise ConfigurationError(
            "a fleet worker runs a pinned EngineConfig (provider and "
            f"chunk_windows set), got provider={config.provider!r}, "
            f"chunk_windows={config.chunk_windows!r}"
        )
    if not config.arena:
        arena = None
    elif arena is None:
        arena = WorkspaceArena()
    context = ExecutionContext(
        config.provider, config.chunk_windows, arena=arena
    )
    welch = build_system(config).welch
    analyzer = welch.analyzer
    warm_execution_caches(
        analyzer.workspace_size, analyzer.order, config.provider
    )
    if arena is not None:
        shape = (config.chunk_windows, analyzer.workspace_size)
        arena.warm(shape, np.float64, count=2)
        arena.warm(shape, np.complex128, count=2)
    return welch, context


def init_worker(config, progress_queue) -> None:
    """Pool initializer: build this process's worker state from ``config``.

    Sets this process's :class:`~repro.perf.ExecutionContext` once,
    from :func:`worker_state`; every task the process runs executes
    under it.  ``progress_queue`` (a ``multiprocessing`` queue)
    receives a ``(pid, task_id)`` record as each task *starts*, so the
    parent's watchdog can name the task a worker held when it died.
    """
    welch, context = worker_state(config)
    set_execution(context)
    _STATE["welch"] = welch
    _STATE["progress"] = progress_queue
    _STATE["config"] = config


def _report_task_start(task_id: int) -> None:
    """Tell the parent which task this process is about to run."""
    progress = _STATE.get("progress")
    if progress is not None:
        try:
            progress.put((os.getpid(), task_id))
        except Exception:  # pragma: no cover - progress is best-effort
            pass


def execute_task(
    task: SpanTask, arrays, welch: WelchLomb, config
) -> tuple[LombBatch, MetricsBatch]:
    """Run one task: one choke-point call over its spans.

    The one executor behind every slot — a pool worker
    (:func:`run_pool_task`), the runner's in-process slot and a remote
    :class:`~repro.fleet.remote.WorkerDaemon` — each under the fleet's
    provider and chunk pins.  ``arrays`` maps the task's array keys to
    sample arrays; ``welch`` is the base engine and ``config`` its
    :class:`~repro.engine.EngineConfig`, which resolve the spans' FFT
    owners.  Returns the ``(LombBatch, MetricsBatch)`` pair, one row
    per span in span order.
    """
    return analyze_spans_quality(
        welch.analyzer,
        arrays[task.times_key],
        arrays[task.values_key],
        task.spans,
        task.count_ops,
        corrected=(
            None if task.corrected_key is None else arrays[task.corrected_key]
        ),
        owners=span_owners(welch, config, task.variants),
    )


def run_pool_task(task: SpanTask, refs) -> tuple:
    """Pool entry point: run ``task`` over shared-memory arrays.

    ``refs[key]`` is the :class:`~repro.fleet.shm.SharedArrayRef` of
    array ``key``.  Windows are sliced zero-copy from the mapped
    blocks; the kernels copy them into their own workspaces, so nothing
    returned references the blocks and they are detached before
    returning (pools outlive individual runs, so holding attachments
    would pin unlinked blocks).
    """
    _report_task_start(task.task_id)
    blocks = []
    arrays = {}
    try:
        for key in task.array_keys:
            block, arrays[key] = attach_array(refs[key])
            blocks.append(block)
        return execute_task(task, arrays, _STATE["welch"], _STATE["config"])
    finally:
        # Every view into the mapped blocks must be gone before close()
        # (mmap refuses to unmap while buffer exports are alive).
        arrays = None
        for block in blocks:
            block.close()
