"""Module-level plan cache for design-time transform data.

Every kernel in this library separates *planning* (computing twiddle
factors, pruning masks, index permutations, interpolation tables) from
*execution*.  Planning is pure — it depends only on the transform
geometry ``(n, basis, levels, pruning, order)`` — yet the convenience
entry points historically re-derived it on every call: ``radix2_fft``
rebuilt its bit-reversal permutation, ``wavelet_fft`` re-planned a full
:class:`~repro.ffts.wavelet_fft.WaveletFFT`, and every ``extirpolate``
call recomputed the Lagrange denominator table from ``math.factorial``.

This module is the single memoisation point for all of that design-time
data.  Cached arrays are returned **read-only** (callers only ever index
or multiply by them) and cached plan objects are stateless after
construction, so sharing them between analysers is safe.  Caches are
process-wide, size-bounded LRU maps (:class:`_BoundedCache`), each
behind one lock; a racing rebuild is harmless (both threads compute the
same value), entries :func:`warm_execution_caches` deliberately warmed are
pinned against eviction, and :func:`plan_cache_detail` surfaces each
cache's hit/miss/eviction counters.

The cache is what makes the batched execution engine cheap to drive:
:class:`~repro.core.system.ConventionalPSA` /
:class:`~repro.core.system.QualityScalablePSA` instances and repeated
:class:`~repro.lomb.fast.FastLomb` constructions all resolve to the same
shared, fully-planned kernels.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .._validation import require_power_of_two
from ..errors import SignalError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..wavelets.filters import WaveletFilter
    from .backends import SplitRadixFFT
    from .providers.base import FFTProvider
    from .pruning import PruningSpec
    from .wavelet_fft import WaveletFFT

__all__ = [
    "bit_reversal",
    "split_radix_twiddles",
    "radix2_stage_twiddles",
    "lagrange_denominators",
    "twiddle_pair",
    "wavelet_keep_masks",
    "wavelet_plan",
    "split_radix_plan",
    "provider_plan",
    "warm_execution_caches",
    "plan_cache_stats",
    "plan_cache_detail",
    "clear_plan_caches",
]

#: Bound on the memoised design-table functions below.  Each entry is a
#: per-size table; 256 distinct geometries is far beyond any real run
#: (one study uses a handful of workspace sizes) while keeping a
#: pathological size sweep from growing the tables without limit.
_TABLE_CACHE_SIZE = 256


class _BoundedCache:
    """Size-bounded LRU mapping with pin protection for warmed entries.

    The dictionary caches below used to be unbounded — fine for a study
    that visits a handful of geometries, but a long-lived server sweeping
    sizes or ad-hoc filter banks would grow them forever.  This wrapper
    keeps plain-dict semantics (``get``/``put``/``len``/``clear``) and
    adds:

    * **LRU eviction** past ``maxsize`` — a ``get`` or ``put`` refreshes
      the entry's recency; the least recently used *unpinned* entry goes
      first.
    * **Pins** — :func:`warm_execution_caches` pins what it warms, so a
      deliberately warmed fleet plan can never be evicted by cache
      pressure from incidental geometries (pinned entries do not count
      against ``maxsize``).
    * **Counters** — hits/misses/evictions, surfaced by
      :func:`plan_cache_detail` (entries, pins and counters share one lock).
    """

    def __init__(self, maxsize: int):
        self.maxsize = int(maxsize)
        self._data: OrderedDict = OrderedDict()
        self._pinned: set = set()
        self._lock = threading.Lock()
        # A fork must not hand the child a lock some parent thread held.
        os.register_at_fork(after_in_child=self._renew_lock)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _renew_lock(self) -> None:
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            self._evict()

    def pin(self, key) -> None:
        """Protect *key* from eviction (no-op when absent)."""
        with self._lock:
            if key in self._data:
                self._pinned.add(key)

    def _evict(self) -> None:
        over = (len(self._data) - len(self._pinned)) - self.maxsize
        if over <= 0:
            return
        for key in list(self._data):
            if over <= 0:
                break
            if key in self._pinned:
                continue
            del self._data[key]
            self.evictions += 1
            over -= 1

    def pop(self, key, default=None):
        with self._lock:
            self._pinned.discard(key)
            return self._data.pop(key, default)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._pinned.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "pinned": len(self._pinned),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Mark a cached array immutable so shared plans cannot be corrupted."""
    arr.setflags(write=False)
    return arr


# ----------------------------------------------------------------------
# Index permutations and twiddle tables
# ----------------------------------------------------------------------


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def bit_reversal(n: int) -> np.ndarray:
    """Memoised bit-reversal permutation for the iterative radix-2 FFT.

    The returned array is read-only and shared between callers; index
    with it (``x[perm]``) rather than mutating it.
    """
    n = require_power_of_two(n, "n")
    bits = int(np.log2(n))
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        reversed_indices = (reversed_indices << 1) | (indices & 1)
        indices >>= 1
    return _freeze(reversed_indices)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def split_radix_twiddles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Memoised ``(w1, w3)`` twiddle pair of one split-radix recursion level.

    ``w1[k] = exp(-2j pi k / n)`` and ``w3[k] = exp(-6j pi k / n)`` for
    ``k < n/4`` — the factors applied to the two odd quarter-length
    sub-transforms.  Recursion levels share the cache, so planning a
    length-``n`` transform also warms every smaller size it visits.
    """
    n = require_power_of_two(n, "n")
    k = np.arange(n // 4)
    w1 = np.exp(-2j * np.pi * k / n)
    w3 = np.exp(-6j * np.pi * k / n)
    return _freeze(w1), _freeze(w3)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def radix2_stage_twiddles(n: int) -> tuple[np.ndarray, ...]:
    """Memoised per-stage twiddle vectors of the iterative radix-2 FFT."""
    n = require_power_of_two(n, "n")
    stages: list[np.ndarray] = []
    span = 1
    while span < n:
        stages.append(_freeze(np.exp(-1j * np.pi * np.arange(span) / span)))
        span *= 2
    return tuple(stages)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def lagrange_denominators(order: int) -> np.ndarray:
    """Memoised reverse-Lagrange denominator table of one interpolation order.

    ``denom[c] = (-1)^(order-1-c) * c! * (order-1-c)!`` — the constant part
    of the extirpolation weights, previously rebuilt from
    ``math.factorial`` on every :func:`~repro.lomb.extirpolation.extirpolate`
    call.
    """
    order = int(order)
    if order < 2 or order > 10:
        raise SignalError(f"order must be in [2, 10], got {order}")
    denominators = np.array(
        [
            ((-1.0) ** (order - 1 - c))
            * math.factorial(c)
            * math.factorial(order - 1 - c)
            for c in range(order)
        ]
    )
    return _freeze(denominators)


# ----------------------------------------------------------------------
# Wavelet-FFT design data
# ----------------------------------------------------------------------

_TWIDDLE_PAIRS = _BoundedCache(maxsize=128)
_KEEP_MASKS = _BoundedCache(maxsize=128)
_WAVELET_PLANS = _BoundedCache(maxsize=64)
_SPLIT_RADIX_PLANS = _BoundedCache(maxsize=64)


def _bank_key(bank: "WaveletFilter") -> tuple:
    """Hashable identity of a filter bank (registry name is not enough
    for ad-hoc :class:`WaveletFilter` instances, so the taps are keyed)."""
    return (bank.name, bank.lowpass.tobytes(), bank.highpass.tobytes())


def twiddle_pair(n: int, bank: "WaveletFilter") -> tuple[np.ndarray, np.ndarray]:
    """Memoised ``(H_L, H_H)`` modified twiddle factors of paper eq. 6.

    Equivalent to :func:`repro.wavelets.freq.twiddle_pair` but cached per
    ``(n, filter bank)``; building the responses loops over the filter
    taps and is the most expensive step of :class:`WaveletFFT` planning.
    """
    key = (require_power_of_two(n, "n"), *_bank_key(bank))
    pair = _TWIDDLE_PAIRS.get(key)
    if pair is None:
        from ..wavelets.freq import filter_response

        pair = (
            _freeze(filter_response(bank.lowpass, n)),
            _freeze(filter_response(bank.highpass, n)),
        )
        _TWIDDLE_PAIRS.put(key, pair)
    return pair


def wavelet_keep_masks(
    n: int, bank: "WaveletFilter", band_drop: bool, twiddle_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """Memoised static keep-masks over the HL/HH factor applications.

    Band drop removes the whole HH channel before the twiddle-set
    fraction is applied to the remaining applications (the paper's Modes
    combine both levers); see :class:`~repro.ffts.wavelet_fft.WaveletFFT`
    for how dynamic pruning reuses these masks as its candidate set.
    """
    n = require_power_of_two(n, "n")
    key = (n, *_bank_key(bank), bool(band_drop), float(twiddle_fraction))
    masks = _KEEP_MASKS.get(key)
    if masks is None:
        from .pruning import static_twiddle_mask

        hl, hh = twiddle_pair(n, bank)
        hh_active = not band_drop
        if twiddle_fraction > 0:
            if hh_active:
                mags = np.concatenate([np.abs(hl), np.abs(hh)])
                keep = static_twiddle_mask(mags, twiddle_fraction)
                hl_keep = keep[:n]
                hh_keep = keep[n:]
            else:
                hl_keep = static_twiddle_mask(np.abs(hl), twiddle_fraction)
                hh_keep = np.zeros(n, dtype=bool)
        else:
            hl_keep = np.ones(n, dtype=bool)
            hh_keep = (
                np.ones(n, dtype=bool) if hh_active else np.zeros(n, dtype=bool)
            )
        masks = (_freeze(hl_keep), _freeze(hh_keep))
        _KEEP_MASKS.put(key, masks)
    return masks


# ----------------------------------------------------------------------
# Whole-plan caches
# ----------------------------------------------------------------------


def wavelet_plan(
    n: int,
    basis="haar",
    levels: int = 1,
    pruning: "PruningSpec | None" = None,
    sub_backend: str = "auto",
) -> "WaveletFFT":
    """Shared, fully-planned :class:`WaveletFFT` for the given geometry.

    Plans are stateless after construction, so one instance safely serves
    every caller with the same ``(n, basis, levels, pruning, sub_backend)``
    key — this is what keeps :func:`~repro.ffts.wavelet_fft.wavelet_fft`
    and repeated :class:`~repro.core.system.QualityScalablePSA`
    construction from re-deriving twiddles and masks.

    Whole plans are only cached for design-time geometries.  A spec
    carrying a calibrated ``dynamic_threshold`` is keyed by a
    data-derived float — per-recording calibration would grow the cache
    without bound — so those plans are built fresh each time (still
    cheap: their twiddles and masks come from the shared caches above).
    """
    from ..wavelets.filters import WaveletFilter, get_filter
    from .pruning import PruningSpec
    from .wavelet_fft import WaveletFFT

    bank = basis if isinstance(basis, WaveletFilter) else get_filter(basis)
    spec = pruning if pruning is not None else PruningSpec.none()
    if spec.dynamic_threshold is not None:
        return WaveletFFT(
            n, basis=bank, levels=levels, pruning=spec, sub_backend=sub_backend
        )
    key = (
        require_power_of_two(n, "n"),
        *_bank_key(bank),
        int(levels),
        spec,
        sub_backend,
    )
    plan = _WAVELET_PLANS.get(key)
    if plan is None:
        plan = WaveletFFT(
            n, basis=bank, levels=levels, pruning=spec, sub_backend=sub_backend
        )
        _WAVELET_PLANS.put(key, plan)
    return plan


def split_radix_plan(n: int, use_numpy: bool = True) -> "SplitRadixFFT":
    """Shared :class:`SplitRadixFFT` plan (stateless, safe to share)."""
    from .backends import SplitRadixFFT

    key = (require_power_of_two(n, "n"), bool(use_numpy))
    plan = _SPLIT_RADIX_PLANS.get(key)
    if plan is None:
        plan = SplitRadixFFT(n, use_numpy=use_numpy)
        _SPLIT_RADIX_PLANS.put(key, plan)
    return plan


_PROVIDER_PLANS = _BoundedCache(maxsize=32)


def provider_plan(name: str) -> "FFTProvider":
    """Shared execution-provider handle (stateless, safe to share).

    One instance per registered provider name; built through
    :func:`repro.ffts.providers.registry.build_provider`.  Callers go
    through :func:`repro.ffts.providers.registry.get_provider`, which
    validates the name and its availability first.
    """
    plan = _PROVIDER_PLANS.get(name)
    if plan is None:
        from .providers.registry import build_provider

        plan = build_provider(name)
        _PROVIDER_PLANS.put(name, plan)
    return plan


# ----------------------------------------------------------------------
# Pre-fork warm-up
# ----------------------------------------------------------------------


def warm_execution_caches(
    n: int, order: int = 4, provider: str | None = None
) -> None:
    """Build every execution-time table an ``n``-point run can touch.

    Plan construction warms the design-time caches, but some tables are
    only resolved at *transform* time (the split-radix twiddle chain of
    the explicit recursion, the radix-2 stage tables, the Lagrange
    extirpolation denominators, the execution provider's per-size
    state).  The fleet engine calls this in the parent **before**
    forking its worker pool so the tables are inherited copy-on-write
    instead of being rebuilt once per worker; spawn-based pools call it
    again in each worker's initializer, where it warms that process's
    own caches.

    ``provider`` names the resolved FFT execution provider to warm for
    size ``n`` (and the half-size the fused real path and wavelet
    sub-FFTs use); ``None`` skips provider warm-up.
    """
    n = require_power_of_two(n, "n")
    size = n
    while size >= 4:
        split_radix_twiddles(size)
        size //= 2
    bit_reversal(n)
    radix2_stage_twiddles(n)
    lagrange_denominators(order)
    if provider is not None:
        from .providers.registry import get_provider

        engine = get_provider(provider)
        engine.warm(n)
        if n >= 8:
            engine.warm(n // 2)
        # A deliberately warmed provider handle must survive cache
        # pressure from incidental geometries for the process lifetime.
        _PROVIDER_PLANS.pin(provider)


# ----------------------------------------------------------------------
# Introspection / test hooks
# ----------------------------------------------------------------------


def plan_cache_stats() -> dict[str, int]:
    """Current entry counts of every cache (for tests and diagnostics).

    Values are plain entry counts; see :func:`plan_cache_detail` for the
    bounded caches' hit/miss/eviction/pin counters.
    """
    return {
        "bit_reversal": bit_reversal.cache_info().currsize,
        "split_radix_twiddles": split_radix_twiddles.cache_info().currsize,
        "radix2_stage_twiddles": radix2_stage_twiddles.cache_info().currsize,
        "lagrange_denominators": lagrange_denominators.cache_info().currsize,
        "twiddle_pairs": len(_TWIDDLE_PAIRS),
        "keep_masks": len(_KEEP_MASKS),
        "wavelet_plans": len(_WAVELET_PLANS),
        "split_radix_plans": len(_SPLIT_RADIX_PLANS),
        "provider_plans": len(_PROVIDER_PLANS),
    }


def plan_cache_detail() -> dict[str, dict[str, int]]:
    """Per-cache LRU counters (size/maxsize/pinned/hits/misses/evictions).

    Complements the flat entry counts of :func:`plan_cache_stats` with
    the bounded caches' behaviour counters — the diagnostic surface for
    confirming a warmed fleet keeps hitting its pinned plans.
    """
    return {
        "twiddle_pairs": _TWIDDLE_PAIRS.stats(),
        "keep_masks": _KEEP_MASKS.stats(),
        "wavelet_plans": _WAVELET_PLANS.stats(),
        "split_radix_plans": _SPLIT_RADIX_PLANS.stats(),
        "provider_plans": _PROVIDER_PLANS.stats(),
    }


def clear_plan_caches() -> None:
    """Drop every cached table and plan (test isolation hook)."""
    bit_reversal.cache_clear()
    split_radix_twiddles.cache_clear()
    radix2_stage_twiddles.cache_clear()
    lagrange_denominators.cache_clear()
    _TWIDDLE_PAIRS.clear()
    _KEEP_MASKS.clear()
    _WAVELET_PLANS.clear()
    _SPLIT_RADIX_PLANS.clear()
    _PROVIDER_PLANS.clear()
