"""The fleet's one task shape and its one executor.

Every unit of fleet work — a window shard of a cohort recording, or a
slice of a span batch split across slots — is a :class:`SpanTask`:
spans over sample arrays named by key, a ``count_ops`` flag, a quality
variant and an optional interpolated-beat mask key.  Every slot runs it
with :func:`execute_task`: resolve the variant's engine, call
:func:`~repro.lomb.welch.analyze_spans_quality`, and pack the spectra
and window metrics into the compact form that crosses processes
(:func:`pack_spectra` / :func:`pack_metrics`; per-window frequency
grids are rebuilt from ``df``/``nout`` on the parent side instead of
being pickled once per window).  The slots differ only in how the
arrays arrive:

* a pool worker — initialised once with the engine and the parent's
  resolved pins (:func:`init_worker`) — attaches them from shared
  memory (:func:`run_pool_task`);
* the runner's in-process slot hands them over directly;
* a remote :class:`~repro.fleet.remote.WorkerDaemon` holds the copies
  its client uploaded.

With the default ``fork`` start method the engine and every plan-cache
table are inherited copy-on-write from the warmed parent; with
``spawn`` the initializer re-warms this process's own caches.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..ffts.plancache import warm_execution_caches
from ..ffts.providers.registry import set_default_provider
from ..hrv.metrics import WindowMetrics
from ..lomb.fast import LombSpectrum, set_batch_chunk_windows
from ..lomb.welch import WelchLomb, analyze_spans_quality
from ..perf.workspace import WorkspaceArena, set_active_arena
from .shm import attach_array

__all__ = [
    "SpanTask",
    "execute_task",
    "init_worker",
    "resolve_variant",
    "run_pool_task",
    "pack_metrics",
    "pack_spectra",
    "unpack_metrics",
    "unpack_spectra",
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
        Attach executed operation counts to every spectrum.
    variant:
        Quality variant: ``None`` for the base engine, or a
        ``(system_kind, PruningSpec)`` ladder rung (load shedding).
    corrected_key:
        Key of the interpolated-beat 0/1 mask, or ``None`` when the
        arrays carry no provenance.
    """

    task_id: int
    times_key: int
    values_key: int
    spans: tuple[tuple[int, int], ...]
    count_ops: bool
    variant: tuple | None = None
    corrected_key: int | None = None

    @property
    def array_keys(self) -> tuple[int, ...]:
        """Keys of every array this task reads."""
        keys = (self.times_key, self.values_key)
        if self.corrected_key is None:
            return keys
        return keys + (self.corrected_key,)


def init_worker(
    welch: WelchLomb,
    chunk_windows: int | None,
    provider: str | None = None,
    arena: bool = True,
    progress_queue=None,
    config=None,
) -> None:
    """Pool initializer: install the engine and warm this process.

    ``chunk_windows`` pins the batch sub-batch size to the parent's
    resolved value so the whole fleet runs one consistent chunking
    policy (results never depend on it; only throughput does).
    ``provider`` pins the FFT execution provider to the parent's
    resolved choice — here results *do* depend on it (different engines
    round differently), so pinning is what keeps every shard, and hence
    the merged cohort, bit-identical to the single-process run.
    ``arena`` installs a process-wide
    :class:`~repro.perf.WorkspaceArena` and pre-warms its hottest
    shapes — the ``(chunk, workspace)`` kernel matrices — so even a
    worker's first shard reuses pooled buffers (arenas never change
    results; the kernels run the same operations either way).
    ``progress_queue`` (a ``multiprocessing`` queue) receives a
    ``(pid, task_id)`` record as each task *starts*, so the parent's
    watchdog can name the task a worker held when it died.
    ``config`` (an :class:`~repro.engine.EngineConfig`) lets this
    worker serve *quality-variant* tasks — spans the hub's SLO
    controller shed to a degraded pruning mode (see
    :func:`resolve_variant`); without it, variant tasks are rejected.
    """
    if chunk_windows is not None:
        set_batch_chunk_windows(chunk_windows)
    if provider is not None:
        set_default_provider(provider)
    analyzer = welch.analyzer
    warm_execution_caches(analyzer.workspace_size, analyzer.order, provider)
    if arena:
        worker_arena = WorkspaceArena()
        if chunk_windows is not None and chunk_windows > 0:
            ndim = analyzer.workspace_size
            worker_arena.warm((chunk_windows, ndim), np.float64, count=2)
            worker_arena.warm((chunk_windows, ndim), np.complex128, count=2)
        set_active_arena(worker_arena)
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


def pack_spectra(spectra) -> list[tuple]:
    """Compact, picklable form of a task's spectra.

    Runs of consecutive same-grid-length windows (the overwhelmingly
    common case: a steady recording produces one grid) are packed as
    **one** dense power matrix plus per-window scalar vectors, instead
    of thousands of tiny per-window arrays; frequency grids are dropped
    entirely (reconstructable as ``df * arange(1, nout + 1)``).  This
    cuts the result traffic back to the parent by well over half.
    """
    groups: list[tuple] = []
    run: list[LombSpectrum] = []
    for spectrum in spectra:
        if run and spectrum.frequencies.size != run[0].frequencies.size:
            groups.append(_pack_group(run))
            run = []
        run.append(spectrum)
    if run:
        groups.append(_pack_group(run))
    return groups


def _pack_group(run: list[LombSpectrum]) -> tuple:
    return (
        run[0].frequencies.size,
        np.array([float(s.frequencies[0]) for s in run]),
        np.vstack([s.power for s in run]),
        np.array([s.mean for s in run]),
        np.array([s.variance for s in run]),
        np.array([s.n_samples for s in run], dtype=np.int64),
        np.array([s.duration for s in run]),
        tuple(s.counts for s in run),
    )


def unpack_spectra(packed) -> list[LombSpectrum]:
    """Rebuild :class:`LombSpectrum` records from :func:`pack_spectra`."""
    spectra = []
    for nout, dfs, powers, means, variances, ns, durations, counts in packed:
        m = np.arange(1, nout + 1)
        for i in range(dfs.size):
            spectra.append(
                LombSpectrum(
                    frequencies=dfs[i] * m,
                    power=powers[i],
                    mean=float(means[i]),
                    variance=float(variances[i]),
                    n_samples=int(ns[i]),
                    duration=float(durations[i]),
                    counts=counts[i],
                )
            )
    return spectra


def pack_metrics(metrics) -> tuple:
    """Compact, picklable form of a task's per-window metrics.

    Eight parallel vectors (one entry per window) instead of a list of
    dataclass instances — the same dense-over-sparse trade
    :func:`pack_spectra` makes, and every float crosses the transports
    as a raw float64 buffer, so the rebuilt metrics are bit-exact.
    """
    metrics = tuple(metrics)
    return (
        np.array([m.n_beats for m in metrics], dtype=np.int64),
        np.array([m.mean_rr_ms for m in metrics]),
        np.array([m.sdnn_ms for m in metrics]),
        np.array([m.rmssd_ms for m in metrics]),
        np.array([m.pnn50 for m in metrics]),
        np.array([m.pnn20 for m in metrics]),
        np.array([m.corrected_fraction for m in metrics]),
        np.array([m.flags for m in metrics], dtype=np.int64),
    )


def unpack_metrics(packed) -> tuple[WindowMetrics, ...]:
    """Rebuild :class:`WindowMetrics` records from :func:`pack_metrics`."""
    n_beats, means, sdnns, rmssds, p50s, p20s, fractions, flags = packed
    return tuple(
        WindowMetrics(
            n_beats=int(n_beats[i]),
            mean_rr_ms=float(means[i]),
            sdnn_ms=float(sdnns[i]),
            rmssd_ms=float(rmssds[i]),
            pnn50=float(p50s[i]),
            pnn20=float(p20s[i]),
            corrected_fraction=float(fractions[i]),
            flags=int(flags[i]),
        )
        for i in range(n_beats.size)
    )


def resolve_variant(welch: WelchLomb, config, variant) -> WelchLomb:
    """The engine a quality variant selects (``None`` = ``welch``).

    A variant is a ``(system_kind, PruningSpec)`` ladder rung; its
    engine comes from the process-wide
    :func:`~repro.engine.engine.variant_system` memo over ``config`` —
    the :class:`~repro.engine.EngineConfig` ``welch`` was built from,
    without which an executor cannot be asked to shed quality.
    """
    if variant is None:
        return welch
    if config is None:
        raise ConfigurationError(
            "quality-variant tasks need the EngineConfig that describes "
            "the engine: cannot build the variant's engine without it"
        )
    # Imported lazily: repro.engine imports the fleet package at call
    # time only, and keeping that symmetric avoids a cycle.
    from ..engine.engine import variant_system

    return variant_system(config, variant).welch


def execute_task(
    task: SpanTask, arrays, welch: WelchLomb, config=None
) -> tuple:
    """Run one task: resolve its variant, analyse its spans, pack.

    The one executor behind every slot — a pool worker
    (:func:`run_pool_task`), the runner's in-process slot and a remote
    :class:`~repro.fleet.remote.WorkerDaemon` — each under the fleet's
    provider and chunk pins.  ``arrays`` maps the task's array keys to
    sample arrays; ``welch`` is the base engine and ``config`` its
    :class:`~repro.engine.EngineConfig`.  Returns ``(packed_spectra,
    packed_metrics)`` in span order.
    """
    spectra, metrics = analyze_spans_quality(
        resolve_variant(welch, config, task.variant).analyzer,
        arrays[task.times_key],
        arrays[task.values_key],
        task.spans,
        task.count_ops,
        corrected=(
            None if task.corrected_key is None else arrays[task.corrected_key]
        ),
    )
    return pack_spectra(spectra), pack_metrics(metrics)


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
