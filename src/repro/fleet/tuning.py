"""Per-host auto-tuning of the batched execution chunk size.

The batched Fast-Lomb pipeline processes a span batch in sub-batches
of ``chunk_windows`` rows so the dense ``(rows, N)``
workspaces and extirpolation intermediates stay cache-resident
(:mod:`repro.lomb.fast`).  PR 1 hard-coded 256 rows — a value measured
on one development host.  This module derives the value from the host
instead:

* :func:`detect_cache_bytes` reads the last-level data/unified cache
  size from sysfs (Linux) with a conservative fallback when the probe
  fails;
* :func:`chunk_windows_for_cache` converts a cache size into a row
  count using the measured per-window working-set footprint of the
  batch pipeline;
* :func:`measure_chunk_windows` is the empirical alternative: it times
  a synthetic workload at several candidate chunk sizes and picks the
  fastest (used by the fleet benchmark and the ``tune`` CLI command);
* :func:`autotune_chunk_windows` is the entry point
  :func:`repro.lomb.fast.host_chunk_windows` calls lazily on first
  batched use.

Tuning never changes results — batch rows are independent, so chunk
boundaries only move work between identical dense kernels.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "ChunkTuning",
    "DEFAULT_CHUNK_WINDOWS",
    "autotune_chunk_windows",
    "chunk_windows_for_cache",
    "detect_cache_bytes",
    "measure_chunk_windows",
]

#: The PR 1 value, kept as the fallback when the host cannot be probed.
DEFAULT_CHUNK_WINDOWS = 256

#: Clamp range for any tuned value.  Below 32 rows the per-chunk Python
#: overhead dominates the dense work; above 1024 the overhead saved is
#: already negligible (<0.1 % of chunk runtime) while the working set
#: keeps growing — hosts whose sysfs reports very large (virtualised or
#: shared) last-level caches measurably regress past this point.
MIN_CHUNK_WINDOWS, MAX_CHUNK_WINDOWS = 32, 1024

#: Largest sysfs cache reading the auto-tuner trusts.  Container and VM
#: hosts surface the *machine's* (or a made-up) last-level cache —
#: hundreds of MB one core can never keep resident; feeding such a
#: reading through the footprint model picks maximal chunks that
#: measurably thrash (batched throughput drops ~25 % on a container
#: reporting 260 MB).  Genuinely huge LLCs (EPYC-class) are segmented
#: per CCX, so a single worker still cannot stream more than this.
MAX_TRUSTED_CACHE_BYTES = 64 * 1024 * 1024

#: Measured per-window working set of the batch pipeline, in bytes per
#: workspace cell: packed complex input and spectrum output (16 B each),
#: the two real extirpolation workspaces (8 B each), and roughly half a
#: workspace of live ``(rows, nout)`` temporaries in the Lomb combine.
#: 96 B/cell reproduces the PR 1 measurement (256 windows at N = 512
#: filling a ~12 MB last-level cache).
_BYTES_PER_CELL = 96

_SYSFS_CACHE_ROOT = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")


@dataclass(frozen=True)
class ChunkTuning:
    """Outcome of one chunk-size tuning pass.

    Attributes
    ----------
    chunk_windows:
        The chosen sub-batch row count.
    source:
        How it was chosen: ``"measured"`` (timing probe),
        ``"cache-model"`` (sysfs cache size through the footprint
        model) or ``"default"`` (probe unavailable).
    workspace_size:
        FFT workspace length the value was tuned for.
    cache_bytes:
        Detected last-level cache size (``None`` if undetected).
    timings:
        Candidate-to-seconds map of the timing probe (``None`` for the
        model/default paths).
    provider:
        FFT execution provider the tuning applies to (the timing probe
        runs under it; the cache model is provider-independent but the
        active provider is recorded for the report).
    """

    chunk_windows: int
    source: str
    workspace_size: int
    cache_bytes: int | None = None
    timings: dict[int, float] | None = None
    provider: str | None = None


def _parse_cache_size(text: str) -> int | None:
    """Parse a sysfs cache size string (``"48K"``, ``"12288K"``, ``"1M"``)."""
    text = text.strip()
    if not text:
        return None
    multiplier = 1
    if text[-1] in "Kk":
        multiplier, text = 1024, text[:-1]
    elif text[-1] in "Mm":
        multiplier, text = 1024 * 1024, text[:-1]
    elif text[-1] in "Gg":
        multiplier, text = 1024 * 1024 * 1024, text[:-1]
    try:
        value = int(text)
    except ValueError:
        return None
    return value * multiplier if value > 0 else None


def detect_cache_bytes(root: pathlib.Path | None = None) -> int | None:
    """Size in bytes of the largest data/unified CPU cache, or ``None``.

    Scans ``/sys/devices/system/cpu/cpu0/cache/index*`` (every cache
    level one core can reach); instruction caches are ignored.  Returns
    ``None`` when sysfs is absent (non-Linux hosts, restricted
    containers) — callers then fall back to the PR 1 default.
    """
    root = _SYSFS_CACHE_ROOT if root is None else root
    best: int | None = None
    try:
        indexes = sorted(root.glob("index*"))
    except OSError:
        return None
    for index in indexes:
        try:
            kind = (index / "type").read_text().strip()
            if kind not in ("Data", "Unified"):
                continue
            size = _parse_cache_size((index / "size").read_text())
        except OSError:
            continue
        if size is not None and (best is None or size > best):
            best = size
    return best


def _clamp_to_power_of_two(rows: float) -> int:
    """Clamp to the tuning range and round down to a power of two."""
    rows = min(max(rows, MIN_CHUNK_WINDOWS), MAX_CHUNK_WINDOWS)
    return 1 << int(np.log2(rows))


def chunk_windows_for_cache(workspace_size: int, cache_bytes: int) -> int:
    """Rows that keep one sub-batch resident in a cache of *cache_bytes*.

    Uses the measured ``_BYTES_PER_CELL`` footprint of the batch
    pipeline; the result is clamped to
    ``[MIN_CHUNK_WINDOWS, MAX_CHUNK_WINDOWS]`` and rounded down to a
    power of two so sub-batches tile group sizes evenly.
    """
    if workspace_size < 2:
        raise ConfigurationError(
            f"workspace_size must be >= 2, got {workspace_size}"
        )
    if cache_bytes <= 0:
        raise ConfigurationError(
            f"cache_bytes must be positive, got {cache_bytes}"
        )
    per_window = _BYTES_PER_CELL * workspace_size
    return _clamp_to_power_of_two(cache_bytes / per_window)


def _synthetic_recording(
    n_windows: int, beats_per_window: int, seed: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Identical-geometry RR windows for the timing probe.

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
    FFT execution provider (recorded in the result), so a lazy
    mid-probe re-selection cannot skew the candidate timings; the
    caller's context is untouched.  Returns a :class:`ChunkTuning`
    with per-candidate best-of-*repeats* timings.
    """
    from ..ffts.providers import registry
    from ..lomb import fast
    from ..perf.context import execution

    if not candidates:
        raise ConfigurationError("candidates must be non-empty")
    candidates = tuple(sorted(set(int(c) for c in candidates)))
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
    provider = registry.resolve_provider_name(None, workspace_size)
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
        source="measured",
        workspace_size=workspace_size,
        cache_bytes=detect_cache_bytes(),
        timings=timings,
        provider=provider,
    )


def autotune_chunk_windows(workspace_size: int = 512) -> ChunkTuning:
    """Cheap first-use tuning pass: sysfs cache model, PR 1 fallback.

    This is what :func:`repro.lomb.fast.host_chunk_windows` runs
    lazily the first time a batch is chunked for a given workspace
    size.  It never times anything (timing at import/first-use would
    make cold starts slow and nondeterministic); hosts that want the
    empirical answer run :func:`measure_chunk_windows` explicitly via
    the benchmark or the ``tune`` CLI command.
    """
    cache_bytes = detect_cache_bytes()
    if cache_bytes is None:
        return ChunkTuning(
            chunk_windows=DEFAULT_CHUNK_WINDOWS,
            source="default",
            workspace_size=workspace_size,
        )
    if cache_bytes > MAX_TRUSTED_CACHE_BYTES:
        # Virtualised / whole-machine reading: keep the measured
        # default instead of modelling a cache one core can't use.
        return ChunkTuning(
            chunk_windows=DEFAULT_CHUNK_WINDOWS,
            source="default",
            workspace_size=workspace_size,
            cache_bytes=cache_bytes,
        )
    return ChunkTuning(
        chunk_windows=chunk_windows_for_cache(workspace_size, cache_bytes),
        source="cache-model",
        workspace_size=workspace_size,
        cache_bytes=cache_bytes,
    )
