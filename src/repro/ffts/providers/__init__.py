"""Multi-provider FFT execution layer.

Decouples *what transform the paper's system asks for* (and what it
costs on the modelled sensor node) from *which numerical engine executes
it on the host*.  Three providers ship:

* ``explicit`` — the explicit split-radix recursion, the op-count
  oracle every other provider is tested against;
* ``numpy``    — ``numpy.fft`` pocketfft, the always-available default;
* ``scipy``    — ``scipy.fft`` pocketfft with multi-threaded batches,
  available as a pin when the optional dependency is installed.

Selection goes through :mod:`~repro.ffts.providers.registry`: an
explicit pin, the current execution context
(:func:`repro.perf.execution`), the ``REPRO_FFT_PROVIDER`` environment
variable, then ``numpy``.  See ``python -m repro providers`` for the
live view of this registry (``--probe`` adds a timing report).
"""

from .base import FFTProvider
from .registry import (
    PROVIDER_ENV_VAR,
    active_provider,
    available_providers,
    get_provider,
    provider_descriptions,
    provider_names,
    resolve_provider_name,
)

__all__ = [
    "FFTProvider",
    "PROVIDER_ENV_VAR",
    "active_provider",
    "available_providers",
    "get_provider",
    "provider_descriptions",
    "provider_names",
    "resolve_provider_name",
]
