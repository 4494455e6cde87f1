"""Timing report of the batched execution chunk size.

The batched Fast-Lomb pipeline processes a span batch in sub-batches
of ``chunk_windows`` rows so the dense ``(rows, N)`` workspaces and
extirpolation intermediates stay cache-resident
(:mod:`repro.lomb.fast`).  A process runs the chunk size its config or
environment pins, else :data:`repro.lomb.fast.BATCH_CHUNK_WINDOWS`;
nothing here changes that.  :func:`measure_chunk_windows` times a
synthetic workload at several candidate chunk sizes and reports the
fastest, for ``python -m repro tune``.  Sizes
64–256 read within each other's run-to-run spread on a 24 h recording,
which is why no process picks its chunk size from a timing.

Chunking never changes results — batch rows are independent, so chunk
boundaries only move work between identical dense kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .._validation import require_integer
from ..errors import ConfigurationError

__all__ = ["ChunkTuning", "measure_chunk_windows"]


@dataclass(frozen=True)
class ChunkTuning:
    """Outcome of one :func:`measure_chunk_windows` timing pass.

    Attributes
    ----------
    chunk_windows:
        The fastest candidate sub-batch row count.
    workspace_size:
        FFT workspace length the candidates were timed at.
    timings:
        Candidate-to-seconds map (best of the pass's repeats).
    provider:
        FFT execution provider the candidates ran under.
    """

    chunk_windows: int
    workspace_size: int
    timings: dict[int, float]
    provider: str


def _synthetic_recording(
    n_windows: int, beats_per_window: int, seed: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Identical-geometry RR windows for the timing pass.

    The windows are laid back to back in one recording, the way a hub
    flush lays out its pending windows; returns ``(times, values,
    spans)``.
    """
    rng = np.random.default_rng(seed)
    intervals = 0.85 + 0.05 * rng.standard_normal(n_windows * beats_per_window)
    times = np.cumsum(np.abs(intervals) + 0.3)
    edges = range(0, intervals.size + 1, beats_per_window)
    return times, intervals, list(zip(edges[:-1], edges[1:]))


def measure_chunk_windows(
    workspace_size: int = 512,
    candidates: tuple[int, ...] = (64, 128, 256, 512, 1024),
    n_windows: int | None = None,
    beats_per_window: int = 117,
    repeats: int = 2,
    seed: int = 2014,
) -> ChunkTuning:
    """Time the batch pipeline at each candidate chunk size, pick the best.

    The workload is one :meth:`~repro.lomb.fast.FastLomb.periodogram_spans`
    call over identical-geometry synthetic windows, sized to exercise the
    largest candidate at least twice.  Each candidate runs under a
    context derived from the current one that pins it and the resolved
    FFT execution provider (recorded in the result); the caller's
    context is untouched.  Returns a :class:`ChunkTuning` with
    per-candidate best-of-*repeats* timings.  It reports, and sets
    nothing.
    """
    from ..ffts.providers import registry
    from ..lomb import fast
    from ..perf.context import execution

    if not candidates:
        raise ConfigurationError("candidates must be non-empty")
    candidates = tuple(
        sorted({require_integer(c, "candidates") for c in candidates})
    )
    if candidates[0] < 1:
        raise ConfigurationError(f"candidates must be >= 1, got {candidates}")
    if n_windows is None:
        n_windows = 2 * candidates[-1]
    recording = _synthetic_recording(n_windows, beats_per_window, seed)
    analyzer = fast.FastLomb(
        workspace_size=workspace_size, scaling="denormalized"
    )
    analyzer.periodogram_spans(*recording)  # warm plans and caches untimed
    timings: dict[int, float] = {}
    provider = registry.resolve_provider_name()
    for candidate in candidates:
        with execution(provider=provider, chunk_windows=candidate):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                analyzer.periodogram_spans(*recording)
                best = min(best, time.perf_counter() - start)
        timings[candidate] = best
    chosen = min(timings, key=timings.get)
    return ChunkTuning(
        chunk_windows=chosen,
        workspace_size=workspace_size,
        timings=timings,
        provider=provider,
    )
