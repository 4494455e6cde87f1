"""Provider registry: naming, availability and pinning.

Every transform-executing kernel (:class:`~repro.ffts.backends.SplitRadixFFT`,
the sub-FFT stage of :class:`~repro.ffts.wavelet_fft.WaveletFFT`, the
fused real path of :class:`~repro.lomb.fast.FastLomb`) resolves its
engine through this module, in one chain that ends in a constant:

1. an explicit per-call / per-kernel pin (``provider=`` arguments),
2. the provider of the current execution context
   (:func:`repro.perf.context.execution`: what an engine, a fleet
   worker or a pinned block runs under, so sharded runs stay
   deterministic),
3. the ``REPRO_FFT_PROVIDER`` environment variable (a registered
   provider name),
4. ``numpy``.

A process's provider therefore depends only on its config and
environment.

A pinned-but-unavailable provider (``REPRO_FFT_PROVIDER=scipy`` without
scipy installed) falls back to ``numpy`` rather than failing — the
optional dependency must never take the pipeline down; an *unknown*
name is always a :class:`~repro.errors.ConfigurationError`.

Provider instances are plan handles cached in
:mod:`~repro.ffts.plancache` (one stateless instance per name), so
repeated resolution is a dictionary lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ...envpins import PROVIDER_ENV_VAR, provider_env_pin
from ...errors import ConfigurationError
from ...perf.context import current_execution
from .base import FFTProvider

__all__ = [
    "PROVIDER_ENV_VAR",
    "active_provider",
    "available_providers",
    "build_provider",
    "get_provider",
    "host_provider_name",
    "provider_available",
    "provider_descriptions",
    "provider_names",
    "resolve_provider_name",
]

#: The provider every unpinned process runs, and the fallback of an
#: env-pinned provider this host cannot run; registered unconditionally.
_DEFAULT = "numpy"


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
#: engines in increasing dependency weight).
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


def resolve_provider_name(name: str | None = None) -> str:
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
    return host_provider_name()


def host_provider_name() -> str:
    """The provider this process resolves to outside any pin.

    The ``REPRO_FFT_PROVIDER`` environment variable, then ``"numpy"``.
    An env-pinned provider that is unavailable on this host resolves to
    ``"numpy"`` too (the documented optional-dependency fallback).
    """
    env = provider_env_pin()
    if env is None:
        return _DEFAULT
    env = require_known(env)
    if not _REGISTRY[env].available():
        return _DEFAULT
    return env


def active_provider() -> FFTProvider:
    """The provider instance the dispatch chain resolves to right now."""
    return get_provider(resolve_provider_name())
