"""Provider registry: naming, availability, pinning and auto-selection.

Every transform-executing kernel (:class:`~repro.ffts.backends.SplitRadixFFT`,
the sub-FFT stage of :class:`~repro.ffts.wavelet_fft.WaveletFFT`, the
fused real path of :class:`~repro.lomb.fast.FastLomb`) resolves its
engine through this module.  Resolution order mirrors the chunk-size
tuner (:mod:`repro.fleet.tuning`):

1. an explicit per-call / per-kernel pin (``provider=`` arguments),
2. the provider of the current execution context
   (:func:`repro.perf.context.execution`: what an engine, a fleet
   worker or a pinned block runs under, so sharded runs stay
   deterministic),
3. the ``REPRO_FFT_PROVIDER`` environment variable (a provider name, or
   ``"auto"`` to force the probe),
4. a lazy, memoised :func:`autoselect` micro-benchmark that times each
   available provider once per workspace size and keeps the fastest —
   measured choices persist to a small on-disk cache keyed by machine
   identity (hostname, CPU count, numpy/scipy versions), so later
   processes on the same host skip the probe entirely;
   ``REPRO_FFT_PROVIDER=auto`` forces a fresh probe and refreshes it.

A pinned-but-unavailable provider (``REPRO_FFT_PROVIDER=scipy`` without
scipy installed) falls back to ``numpy`` rather than failing — the
optional dependency must never take the pipeline down; an *unknown*
name is always a :class:`~repro.errors.ConfigurationError`.

Provider instances are plan handles cached in
:mod:`~repro.ffts.plancache` (one stateless instance per name), so
repeated resolution is a dictionary lookup.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...envpins import PROVIDER_ENV_VAR, cache_dir_env_pin, provider_env_pin
from ...errors import ConfigurationError
from ...perf.context import current_execution
from .base import FFTProvider

__all__ = [
    "PROVIDER_ENV_VAR",
    "ProviderChoice",
    "active_provider",
    "autoselect",
    "autoselect_cache_path",
    "autoselect_cached",
    "available_providers",
    "build_provider",
    "clear_autoselect_disk_cache",
    "clear_provider_state",
    "get_provider",
    "host_provider_name",
    "provider_available",
    "provider_descriptions",
    "provider_names",
    "register_provider",
    "resolve_provider_name",
]

#: Name every fallback resolves to; registered unconditionally.
_FALLBACK = "numpy"


def _make_explicit() -> FFTProvider:
    from .explicit import ExplicitProvider

    return ExplicitProvider()


def _make_numpy() -> FFTProvider:
    from .numpy_fft import NumpyFFTProvider

    return NumpyFFTProvider()


def _make_scipy() -> FFTProvider:
    from .scipy_fft import ScipyFFTProvider

    return ScipyFFTProvider()


def _scipy_available() -> bool:
    from . import scipy_fft

    return scipy_fft.scipy_available()


@dataclass(frozen=True)
class _ProviderEntry:
    factory: Callable[[], FFTProvider]
    available: Callable[[], bool]
    description: str


#: Registration order is the listing order (oracle first, then the
#: engines in increasing dependency weight).  The GPU slot (cupy) is
#: the intended next registration — see ROADMAP.
_REGISTRY: dict[str, _ProviderEntry] = {
    "explicit": _ProviderEntry(
        factory=_make_explicit,
        available=lambda: True,
        description="explicit split-radix recursion (op-count oracle)",
    ),
    "numpy": _ProviderEntry(
        factory=_make_numpy,
        available=lambda: True,
        description="numpy.fft pocketfft (always available)",
    ),
    "scipy": _ProviderEntry(
        factory=_make_scipy,
        available=_scipy_available,
        description="scipy.fft pocketfft, multi-threaded batches (optional)",
    ),
}

_autoselected: dict[int, "ProviderChoice"] = {}

#: File name of the persistent autoselect cache inside the cache dir.
_DISK_CACHE_NAME = "fft_autoselect.json"

#: Probe geometry: one small batch per provider, best-of-``_PROBE_REPEATS``.
#: Kept tiny so the lazy first-use probe costs milliseconds (the same
#: reasoning that keeps :func:`repro.fleet.tuning.autotune_chunk_windows`
#: from timing anything heavyweight at first use).
_PROBE_ROWS = 64
_PROBE_REPEATS = 3


def register_provider(
    name: str,
    factory: Callable[[], FFTProvider],
    available: Callable[[], bool],
    description: str = "",
) -> None:
    """Register an additional provider (the extension point for GPU etc.).

    Names are normalised (stripped, lowercased) exactly as lookups are.
    Re-registering an existing name replaces it; the plan-handle cache
    and the autoselect memo are invalidated so the new factory wins.
    """
    name = str(name).strip().lower()
    _REGISTRY[name] = _ProviderEntry(
        factory=factory, available=available, description=description
    )
    from .. import plancache

    plancache.invalidate_provider_plan(name)
    clear_provider_state()


def provider_names() -> tuple[str, ...]:
    """Registered provider names in listing order."""
    return tuple(_REGISTRY)


def require_known(name: str) -> str:
    """Validate a provider name, returning it normalised."""
    name = str(name).strip().lower()
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown FFT provider {name!r}; registered providers: "
            f"{', '.join(_REGISTRY)}"
        )
    return name


def available_providers() -> dict[str, bool]:
    """Mapping of every registered provider name to its availability."""
    return {name: entry.available() for name, entry in _REGISTRY.items()}


def provider_available(name: str) -> bool:
    """Whether provider *name* (validated) can run on this host.

    Asks only *name*'s availability check, so pinning ``numpy`` never
    imports an optional dependency.
    """
    return _REGISTRY[require_known(name)].available()


def provider_descriptions() -> dict[str, str]:
    """Mapping of every registered provider name to its one-liner."""
    return {name: entry.description for name, entry in _REGISTRY.items()}


def build_provider(name: str) -> FFTProvider:
    """Construct a provider instance (plancache calls this; use
    :func:`get_provider`, which returns the shared cached handle)."""
    return _REGISTRY[require_known(name)].factory()


def get_provider(name: str) -> FFTProvider:
    """The shared instance of provider *name*.

    Raises :class:`~repro.errors.ConfigurationError` for unknown names
    and for known-but-unavailable ones (an explicit request for scipy
    without scipy installed is an error; only the *resolution* chain
    falls back silently).
    """
    name = require_known(name)
    if not _REGISTRY[name].available():
        raise ConfigurationError(
            f"FFT provider {name!r} is not available on this host "
            "(optional dependency missing)"
        )
    from .. import plancache

    return plancache.provider_plan(name)


@dataclass(frozen=True)
class ProviderChoice:
    """Outcome of one provider auto-selection probe.

    Attributes
    ----------
    provider:
        The chosen provider name.
    workspace_size:
        Transform size the probe ran at.
    source:
        ``"measured"`` (timing probe ran), ``"disk-cache"`` (a prior
        process's measured choice was read back from the persistent
        cache) or ``"fallback"`` (only one provider available — nothing
        to compare).
    timings:
        Name-to-seconds map of the probe (``None`` on the fallback and
        disk-cache paths).
    """

    provider: str
    workspace_size: int
    source: str
    timings: dict[str, float] | None = None


# ----------------------------------------------------------------------
# Persistent autoselect cache
# ----------------------------------------------------------------------
#
# The timing probe is cheap but not free (milliseconds per process), and
# a fleet re-runs it in every short-lived CLI invocation.  Measured
# choices are therefore persisted to a small JSON file keyed by the
# machine identity that could change the outcome — hostname, CPU count
# and the numpy/scipy versions — plus the workspace size, so a later
# process on the same host skips straight to the remembered winner.
# ``REPRO_FFT_PROVIDER=auto`` bypasses the file and forces a fresh probe
# (refreshing the stored choice); persistence failures are silently
# ignored (the cache is an optimisation, never a dependency).


def autoselect_cache_path() -> str:
    """Path of the persistent autoselect cache file.

    Lives under ``$REPRO_CACHE_DIR`` when set
    (:func:`repro.envpins.cache_dir_env_pin`), else
    ``~/.cache/repro/``.
    """
    base = cache_dir_env_pin()
    if base is None:
        base = os.path.join(os.path.expanduser("~"), ".cache", "repro")
    return os.path.join(base, _DISK_CACHE_NAME)


def _disk_cache_key(workspace_size: int) -> str:
    """Identity under which a measured choice stays valid."""
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is optional
        scipy_version = "none"
    return "|".join(
        [
            socket.gethostname(),
            f"cpu{os.cpu_count() or 1}",
            f"numpy{np.__version__}",
            f"scipy{scipy_version}",
            f"ws{int(workspace_size)}",
        ]
    )


def _disk_cache_load(workspace_size: int) -> str | None:
    """The remembered provider for this machine key, if any."""
    try:
        with open(autoselect_cache_path(), encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    value = data.get(_disk_cache_key(workspace_size))
    return value if isinstance(value, str) else None


def _disk_cache_store(workspace_size: int, provider: str) -> None:
    """Persist a measured choice (atomic, best-effort)."""
    path = autoselect_cache_path()
    try:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
        if not isinstance(data, dict):
            data = {}
        data[_disk_cache_key(workspace_size)] = provider
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        pass


def clear_autoselect_disk_cache() -> None:
    """Delete the persistent autoselect cache file (test/refresh hook)."""
    try:
        os.remove(autoselect_cache_path())
    except OSError:
        pass


def autoselect(
    workspace_size: int = 512,
    rows: int = _PROBE_ROWS,
    repeats: int = _PROBE_REPEATS,
) -> ProviderChoice:
    """Time the available fast providers once, keep the best (memoised).

    The probe transforms one small complex batch per provider
    (best-of-*repeats*); the result is memoised per workspace size so
    the lazy first-use path pays it once per process.  Selection only
    affects throughput — all providers are ``np.allclose``-equivalent
    and operation counts are modelled, never measured.
    """
    # The probe only *times* engines, so any nearby size works — but
    # the explicit provider requires powers of two, and callers may ask
    # about arbitrary workspace sizes (the CLI does).  Round down.
    workspace_size = 1 << (max(int(workspace_size), 8).bit_length() - 1)
    cached = _autoselected.get(workspace_size)
    if cached is not None:
        return cached
    # The explicit oracle is not a probe candidate: it is orders of
    # magnitude slower than any pocketfft engine (timing it would
    # dominate the first-use probe cost), and letting timing noise
    # install it as the process default would be pathological.  It
    # stays selectable through every pin.
    names = [
        name
        for name, entry in _REGISTRY.items()
        if name != "explicit" and entry.available()
    ]
    if not names:
        choice = ProviderChoice(
            provider="explicit",
            workspace_size=workspace_size,
            source="fallback",
        )
        _autoselected[workspace_size] = choice
        return choice
    if len(names) == 1:
        choice = ProviderChoice(
            provider=names[0], workspace_size=workspace_size, source="fallback"
        )
        _autoselected[workspace_size] = choice
        return choice
    # Only the measured branch consults the disk cache: fallback choices
    # are trivially recomputed, and ``REPRO_FFT_PROVIDER=auto`` is the
    # documented "re-probe this host" override, so it bypasses the file
    # (the fresh measurement below then refreshes it).
    force_probe = provider_env_pin() == "auto"
    if not force_probe:
        remembered = _disk_cache_load(workspace_size)
        if remembered in names:
            choice = ProviderChoice(
                provider=remembered,
                workspace_size=workspace_size,
                source="disk-cache",
            )
            _autoselected[workspace_size] = choice
            return choice
    rng = np.random.default_rng(2014)
    batch = (
        rng.standard_normal((rows, workspace_size))
        + 1j * rng.standard_normal((rows, workspace_size))
    )
    timings: dict[str, float] = {}
    for name in names:
        provider = get_provider(name)
        provider.fft_batch(batch)  # warm plans untimed
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            provider.fft_batch(batch)
            best = min(best, time.perf_counter() - start)
        timings[name] = best
    choice = ProviderChoice(
        provider=min(timings, key=timings.get),
        workspace_size=workspace_size,
        source="measured",
        timings=timings,
    )
    _autoselected[workspace_size] = choice
    _disk_cache_store(workspace_size, choice.provider)
    return choice


def autoselect_cached(workspace_size: int = 512) -> ProviderChoice | None:
    """The memoised :func:`autoselect` result, without running the probe.

    Lets read-only consumers (the CLI listing) report the resolution
    state truthfully instead of forcing a timing probe as a side
    effect.
    """
    workspace_size = 1 << (max(int(workspace_size), 8).bit_length() - 1)
    return _autoselected.get(workspace_size)


def resolve_provider_name(
    name: str | None = None, workspace_size: int = 512
) -> str:
    """Resolve the provider name the dispatch chain would use.

    ``name`` is an explicit caller pin (validated strictly); otherwise
    the current execution context's provider, then
    :func:`host_provider_name`.
    """
    if name is not None:
        name = require_known(name)
        if not _REGISTRY[name].available():
            raise ConfigurationError(
                f"FFT provider {name!r} is not available on this host"
            )
        return name
    pinned = current_execution().provider
    if pinned is not None:
        return pinned
    return host_provider_name(workspace_size)


def host_provider_name(workspace_size: int = 512) -> str:
    """The provider this host resolves to outside any pin.

    The environment variable, then the lazy autoselect probe.  An
    env-pinned provider that is unavailable on this host resolves to
    ``"numpy"`` (the documented optional-dependency fallback).
    """
    env = provider_env_pin()
    if env is not None:
        if env == "auto":
            return autoselect(workspace_size).provider
        env = require_known(env)
        if not _REGISTRY[env].available():
            return _FALLBACK
        return env
    return autoselect(workspace_size).provider


def active_provider(workspace_size: int = 512) -> FFTProvider:
    """The provider instance the dispatch chain resolves to right now."""
    return get_provider(resolve_provider_name(None, workspace_size))


def clear_provider_state() -> None:
    """Drop the autoselect memo (test-isolation hook).

    Cached provider *instances* live in
    :func:`repro.ffts.plancache.provider_plan` and are cleared with
    :func:`repro.ffts.plancache.clear_plan_caches`.
    """
    _autoselected.clear()
