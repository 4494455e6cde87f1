"""Workspace arenas: pooled, reusable buffers for the streaming hot path.

Steady-state streaming re-runs the same dense kernels over and over with
near-constant shapes — every hub flush used to allocate (and discard)
padded window matrices, extirpolation scatter buffers, FFT outputs and a
dozen Lomb-combine temporaries.  A :class:`WorkspaceArena` is a
shape/dtype-keyed pool of those buffers with borrow/release semantics:
the first flush pays the allocations, every later flush reuses them, so
steady-state streaming allocates O(1) new arrays per flush instead of
O(windows).

Design rules:

* **Keyed by trailing shape, dtype, and capacity class.**  A borrow of
  ``(rows, n)`` rounds ``rows`` up to a power-of-two *capacity class*
  and is served from the pool for ``(dtype, (n,), capacity)`` — one
  dict lookup and a ``list.pop``, no scanning — returned as a
  contiguous ``base[:rows]`` view, valid as an ``out=`` target for
  every kernel on the hot path.  Slightly varying batch sizes (the
  streaming norm) land in the same capacity class and hit the same
  pooled buffer; borrow/release stay cheap enough (O(1) dict work
  under one lock) that pooling never costs the flush path more than
  the allocations it saves.
* **Results are never arena-backed.**  Kernels only borrow for
  *temporaries*; anything escaping into a result object
  (the columns of a :class:`~repro.lomb.fast.LombBatch`, frequency
  grids, spectrograms) is allocated fresh.  Releasing a buffer hands its
  storage to the next borrower, so a leaked arena view would alias live
  results.
* **Thread-safe and fork-inherited.**  Borrow/release run under one
  lock (hub flushes and async feeders may race); a forked fleet worker
  inherits the parent's pooled buffers copy-on-write exactly like the
  plan caches, and each pool worker builds its own arena from the
  pinned config's ``arena`` field
  (:func:`repro.fleet.worker.worker_state`, run by its initializer) —
  processes receive the setting, never an arena object (it holds a
  lock).
* **Bounded.**  Pooled bytes are capped (``max_bytes``); releasing past
  the cap evicts the largest pooled buffers first, so a transient giant
  batch cannot pin its peak footprint forever.

Kernels do not talk to an arena directly — they open a :class:`Scratch`
over the arena of the current
:class:`~repro.perf.context.ExecutionContext` (:func:`scratch`), which
falls back to plain ``np.empty``/``np.zeros`` when the context carries
none.  An engine's context carries the engine's arena; a fleet worker's
carries the one :func:`repro.fleet.worker.worker_state` built or, on a
worker daemon, the daemon's shared arena.  One code path, two allocation
sources — which is what keeps arena-on and arena-off bit-identical by
construction.
"""

from __future__ import annotations

import threading

import numpy as np

from .context import _current

__all__ = [
    "Scratch",
    "WorkspaceArena",
    "carve",
    "scratch",
]

#: Default cap on pooled (idle) bytes per arena; generous for the
#: paper's 512-cell geometry at fleet chunk sizes, small next to the
#: recordings themselves.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


def _capacity(rows: int) -> int:
    """Leading-dim pool capacity: the next power of two >= ``rows``."""
    rows = int(rows)
    if rows <= 1:
        return 1
    return 1 << (rows - 1).bit_length()


class WorkspaceArena:
    """Shape/dtype-keyed pool of reusable ndarray buffers.

    Parameters
    ----------
    max_bytes:
        Cap on idle (pooled, not lent) bytes.  Releases past the cap
        evict the largest pooled buffers first.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        # (dtype, trailing shape, capacity) -> list of idle base buffers.
        self._pools: dict[tuple, list[np.ndarray]] = {}
        # id(base) -> (base, pool key), for every buffer currently lent
        # out; holding the reference also guarantees id() stays unique
        # while lent, and carrying the key spares release() rebuilding it.
        self._lent: dict[int, tuple[np.ndarray, tuple]] = {}
        self._pooled_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------

    def borrow(self, shape, dtype=np.float64, zero: bool = False) -> np.ndarray:
        """A contiguous buffer of exactly ``shape``, pooled when possible.

        The returned array is a ``base[:rows]`` view of a power-of-two
        capacity base buffer (or the base itself) — C-contiguous, hence
        valid as an ``out=`` target.  Contents are uninitialised unless
        ``zero=True``.  Pass it (or any view of it) back to
        :meth:`release` when done; never let it escape into results.

        This runs ~100 times per hub flush, so the body is deliberately
        lean: one dict lookup on the exact ``(dtype, trailing shape,
        capacity class)`` key and a ``list.pop`` — no pool scanning.
        """
        if type(shape) is not tuple:
            shape = tuple(shape)
        rows = shape[0]
        if type(rows) is not int:
            rows = int(rows)
        trailing = shape[1:]
        dt = dtype if isinstance(dtype, np.dtype) else np.dtype(dtype)
        cap = 1 << (rows - 1).bit_length() if rows > 1 else 1
        key = (dt, trailing, cap)
        with self._lock:
            pool = self._pools.get(key)
            if pool:
                base = pool.pop()
                self._pooled_bytes -= base.nbytes
                self._hits += 1
            else:
                base = np.empty((cap, *trailing), dtype=dt)
                self._misses += 1
            self._lent[id(base)] = (base, key)
        view = base if cap == rows else base[:rows]
        if zero:
            view.fill(0)
        return view

    def release(self, *arrays) -> None:
        """Return borrowed buffers (or views of them) to the pool.

        Arrays the arena does not recognise are ignored — releasing is
        always safe, never adoption.
        """
        pools = self._pools
        with self._lock:
            for arr in arrays:
                if arr is None:
                    continue
                base = arr.base if arr.base is not None else arr
                entry = self._lent.pop(id(base), None)
                if entry is None:
                    continue
                owned, key = entry
                pool = pools.get(key)
                if pool is None:
                    pool = pools[key] = []
                pool.append(owned)
                self._pooled_bytes += owned.nbytes
            if self._pooled_bytes > self.max_bytes:
                self._evict_over_cap()

    def _evict_over_cap(self) -> None:
        """Drop the largest idle buffers until under ``max_bytes``."""
        while self._pooled_bytes > self.max_bytes:
            largest_key, largest_i = None, -1
            largest_bytes = -1
            for key, pool in self._pools.items():
                for i, buf in enumerate(pool):
                    if buf.nbytes > largest_bytes:
                        largest_key, largest_i = key, i
                        largest_bytes = buf.nbytes
            if largest_key is None:
                break
            self._pools[largest_key].pop(largest_i)
            self._pooled_bytes -= largest_bytes
            self._evictions += 1

    def warm(self, shape, dtype=np.float64, count: int = 1) -> None:
        """Pre-allocate ``count`` pooled buffers for a hot shape.

        Fleet workers call this at initialisation so the first real
        flush finds its buffers already resident (and, under the fork
        start method, potentially inherited copy-on-write).
        """
        taken = [self.borrow(shape, dtype) for _ in range(int(count))]
        self.release(*taken)

    def clear(self) -> None:
        """Drop every idle pooled buffer (lent buffers stay tracked)."""
        with self._lock:
            self._pools.clear()
            self._pooled_bytes = 0

    def stats(self) -> dict:
        """Borrow/release counters and current footprint (profiler surface)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "pooled_bytes": self._pooled_bytes,
                "pooled_buffers": sum(
                    len(pool) for pool in self._pools.values()
                ),
                "lent_buffers": len(self._lent),
                "max_bytes": self.max_bytes,
            }


class Scratch:
    """Per-call lease over one arena (or plain allocation when ``None``).

    Kernels open one :class:`Scratch`, :meth:`take` every temporary
    through it, and close it (context manager) when the call's results
    are fully materialised — releasing every borrowed buffer back to the
    arena in one step, exception-safe.  With no arena, :meth:`take` is
    exactly ``np.empty`` / ``np.zeros``: same code path, same operations,
    only the storage source differs — which is what keeps arena-on and
    arena-off results bit-identical by construction.
    """

    __slots__ = ("_arena", "_taken")

    def __init__(self, arena: WorkspaceArena | None = None):
        self._arena = arena
        self._taken: list[np.ndarray] = []

    def take(self, shape, dtype=np.float64, zero: bool = False) -> np.ndarray:
        """A temporary of exactly ``shape`` (uninitialised unless *zero*)."""
        if self._arena is None:
            alloc = np.zeros if zero else np.empty
            return alloc(shape, dtype=dtype)
        buf = self._arena.borrow(shape, dtype, zero=zero)
        self._taken.append(buf)
        return buf

    def take_block(
        self, count: int, shape, dtype=np.float64, zero: bool = False
    ) -> list[np.ndarray]:
        """*count* same-shape temporaries carved from one contiguous take.

        One borrow (one lock round-trip, one pool entry) instead of
        *count*: the returned arrays are the disjoint
        ``block[i * rows : (i + 1) * rows]`` slices of a single buffer —
        C-contiguous, non-overlapping, with the same strides a
        standalone allocation of ``shape`` would have — so reading and
        writing through them is operation-for-operation identical to
        using *count* separate arrays.  Kernels use this for their
        same-shape temporary clusters (the dozen Lomb-combine
        intermediates, the extirpolation masks) to keep per-flush
        borrow counts — and hence arena overhead — low.
        """
        rows = shape[0]
        block = self.take((count * rows, *shape[1:]), dtype, zero=zero)
        return [block[i * rows : (i + 1) * rows] for i in range(count)]

    def close(self) -> None:
        """Release every buffer taken through this scratch."""
        if self._arena is not None and self._taken:
            self._arena.release(*self._taken)
        self._taken = []

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def scratch() -> Scratch:
    """A :class:`Scratch` over the current context's arena (or plain)."""
    return Scratch(_current.get().arena)


def carve(block: np.ndarray, *specs) -> list[np.ndarray]:
    """Partition a flat 1-D buffer into consecutive disjoint views.

    Each spec is a ``shape`` tuple, or ``(shape, dtype)`` for a dtype of
    the *same itemsize* as *block* (e.g. ``int64`` views over ``float64``
    storage).  The views are contiguous consecutive slices — reshaped
    and, where a dtype is given, bit-reinterpreted — so writing through
    them is operation-for-operation identical to writing separate
    arrays: this is storage partitioning only, never numeric conversion.
    Kernels use it to fold a cluster of same-itemsize temporaries into
    one :meth:`Scratch.take`, keeping per-flush borrow counts (and hence
    arena overhead) low even where the shapes in the cluster differ.
    """
    views: list[np.ndarray] = []
    offset = 0
    for spec in specs:
        if spec and isinstance(spec[0], tuple):
            shape, dt = spec
        else:
            shape, dt = spec, None
        count = 1
        for dim in shape:
            count *= dim
        view = block[offset : offset + count]
        if dt is not None and view.dtype != dt:
            view = view.view(dt)
        views.append(view.reshape(shape))
        offset += count
    if offset != block.shape[0]:
        raise ValueError(
            f"specs cover {offset} elements, block has {block.shape[0]}"
        )
    return views
