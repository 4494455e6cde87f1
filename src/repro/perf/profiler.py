"""Per-stage profiler for the streaming hot path.

The arena + ``out=`` work in this package claims a specific win —
steady-state flushes spend their time in math, not in the allocator.
This module makes that claim *observable*: named timing (and optionally
allocation) spans around the pipeline stages

``concat`` → ``prepare`` → ``extirpolate`` → ``fft`` → ``lomb_combine``
→ ``metrics`` → ``record`` → ``assemble`` → ``hub_flush``

surfaced through ``python -m repro profile`` and the ``profile=`` knob
on :class:`~repro.engine.EngineConfig`.  ``concat`` and ``record`` are
the hub's gather of pending windows and its emission recording;
``prepare`` is the dense kernel's window moments and workspace
positions.

The cardinal constraint is *near-zero overhead when disabled*: the hot
path calls :func:`span` per kernel invocation, so the disabled path must
be one module-level ``None`` check returning a shared no-op singleton —
no object construction, no clock reads, no branching inside ``__exit__``.
Enabling a profiler is scoped exactly like provider pins and arenas
(:func:`profile_scope`, mirroring
:func:`repro.lomb.fast.pinned_execution`), so profiling one engine never
taxes another.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from collections import deque
from contextlib import contextmanager

__all__ = [
    "LatencyWindow",
    "StageProfiler",
    "get_active_profiler",
    "profile_scope",
    "set_active_profiler",
    "span",
]

#: Canonical stage names, in pipeline order (report rows keep first-seen
#: order, so canonical stages render in this order when present).
STAGES = (
    "concat", "prepare", "extirpolate", "fft", "lomb_combine", "metrics",
    "record", "assemble", "hub_flush",
)


class _NullSpan:
    """Shared no-op span: the entire cost of profiling while disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


NULL_SPAN = _NullSpan()


class _StageStats:
    __slots__ = ("calls", "seconds", "alloc_bytes")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.alloc_bytes = 0


class _Span:
    """One live timed (and optionally allocation-traced) region."""

    __slots__ = ("_stats", "_trace_alloc", "_t0", "_mem0")

    def __init__(self, stats: _StageStats, trace_alloc: bool):
        self._stats = stats
        # Allocation deltas only make sense while tracemalloc runs;
        # checking here keeps __exit__ branch-free on the common path.
        self._trace_alloc = trace_alloc and tracemalloc.is_tracing()

    def __enter__(self):
        if self._trace_alloc:
            self._mem0 = tracemalloc.get_traced_memory()[0]
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        dt = time.perf_counter() - self._t0
        stats = self._stats
        stats.calls += 1
        stats.seconds += dt
        if self._trace_alloc:
            delta = tracemalloc.get_traced_memory()[0] - self._mem0
            if delta > 0:
                stats.alloc_bytes += delta
        return False


class StageProfiler:
    """Accumulates per-stage call counts, wall seconds and net allocations.

    Parameters
    ----------
    trace_alloc:
        When true *and* :mod:`tracemalloc` is tracing, spans also record
        the net bytes allocated inside them (net of frees, floored at
        zero per span — a span that only releases memory records 0).
    """

    def __init__(self, trace_alloc: bool = False):
        self.trace_alloc = bool(trace_alloc)
        self._stages: dict[str, _StageStats] = {}

    def span(self, stage: str) -> _Span:
        """A context manager timing one invocation of *stage*."""
        stats = self._stages.get(stage)
        if stats is None:
            stats = self._stages[stage] = _StageStats()
        return _Span(stats, self.trace_alloc)

    def reset(self) -> None:
        self._stages.clear()

    def report(self) -> dict[str, dict]:
        """``{stage: {calls, seconds, alloc_bytes}}`` in first-seen order."""
        return {
            stage: {
                "calls": stats.calls,
                "seconds": stats.seconds,
                "alloc_bytes": stats.alloc_bytes,
            }
            for stage, stats in self._stages.items()
        }

    def format_report(self) -> str:
        """A human-readable table for CLI output."""
        report = self.report()
        if not report:
            return "no stages recorded"
        header = f"{'stage':<14} {'calls':>8} {'total ms':>10} {'ms/call':>9}"
        if self.trace_alloc:
            header += f" {'alloc KiB':>10}"
        lines = [header, "-" * len(header)]
        for stage, row in report.items():
            ms = row["seconds"] * 1e3
            per = ms / row["calls"] if row["calls"] else 0.0
            line = f"{stage:<14} {row['calls']:>8} {ms:>10.2f} {per:>9.3f}"
            if self.trace_alloc:
                line += f" {row['alloc_bytes'] / 1024.0:>10.1f}"
            lines.append(line)
        return "\n".join(lines)


class LatencyWindow:
    """Rolling per-call latency window with percentile readout.

    :class:`StageProfiler` accumulates *totals* — ideal for attribution,
    useless for tail latency.  This companion keeps the last ``size``
    individual observations (seconds) so SLO checks can ask for a
    percentile of recent behaviour; the quality-adaptive controller
    (:mod:`repro.engine.controller`) feeds it the same per-flush
    latencies the ``hub_flush`` profiler stage times.
    """

    __slots__ = ("_window",)

    def __init__(self, size: int = 32):
        if int(size) < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self._window = deque(maxlen=int(size))

    def observe(self, seconds: float) -> None:
        """Record one latency observation."""
        self._window.append(float(seconds))

    def __len__(self) -> int:
        return len(self._window)

    def percentile(self, q: float) -> float | None:
        """The ``q``-th percentile (0-100) of the window, or ``None`` if empty.

        Nearest-rank on the sorted window — deterministic, no
        interpolation surprises at tiny window sizes.
        """
        if not self._window:
            return None
        ordered = sorted(self._window)
        rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
        return ordered[min(rank, len(ordered) - 1)]

    def clear(self) -> None:
        self._window.clear()


# ----------------------------------------------------------------------
# The active profiler (engine-scoped, like provider pins and arenas)
# ----------------------------------------------------------------------

_active: StageProfiler | None = None


def get_active_profiler() -> StageProfiler | None:
    """The profiler hot-path spans currently report to (may be ``None``)."""
    return _active


def set_active_profiler(
    profiler: StageProfiler | None,
) -> StageProfiler | None:
    """Install the process-wide active profiler; returns the previous one."""
    global _active
    previous = _active
    _active = profiler
    return previous


def span(stage: str):
    """A span on the active profiler — or the shared no-op when disabled.

    This is the only profiler call on the hot path; when no profiler is
    active it costs one global load, one comparison and returning a
    pre-built singleton.
    """
    if _active is None:
        return NULL_SPAN
    return _active.span(stage)


@contextmanager
def profile_scope(profiler: StageProfiler | None):
    """Install *profiler* for the calling block, restoring the previous one."""
    previous = set_active_profiler(profiler)
    try:
        yield profiler
    finally:
        set_active_profiler(previous)
