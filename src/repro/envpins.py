"""The library's environment pins, read in exactly one place.

Three environment variables tune execution without touching code:

* :data:`PROVIDER_ENV_VAR` (``REPRO_FFT_PROVIDER``) — pins the FFT
  execution provider (a registered name),
* :data:`CHUNK_ENV_VAR` (``REPRO_BATCH_CHUNK_WINDOWS``) — pins the
  batched execution path's windows-per-sub-batch size,
* :data:`WORKER_TIMEOUT_ENV_VAR` (``REPRO_WORKER_TIMEOUT``) — pins the
  remote fleet worker connect/heartbeat timeout in seconds.

Every consumer — the provider registry's resolution chain, the batch
chunk resolver in :mod:`repro.lomb.fast`, the CLI's state reporting and
:meth:`repro.engine.EngineConfig.resolve` — reads the pins through
these accessors; no other module touches ``os.environ``.  That keeps
the documented precedence chain (explicit argument → config → env pin →
constant default) auditable in one file, and gives the pins one
consistent parsing rule: unset *or empty/whitespace* means "no pin".
"""

from __future__ import annotations

import os

from .errors import ConfigurationError

__all__ = [
    "CHUNK_ENV_VAR",
    "PROVIDER_ENV_VAR",
    "WORKER_TIMEOUT_ENV_VAR",
    "chunk_env_pin",
    "provider_env_pin",
    "worker_timeout_env_pin",
]

#: Environment pin naming the FFT execution provider.
PROVIDER_ENV_VAR = "REPRO_FFT_PROVIDER"

#: Environment pin fixing the batched windows-per-sub-batch size.
CHUNK_ENV_VAR = "REPRO_BATCH_CHUNK_WINDOWS"

#: Environment pin fixing the remote worker connect/heartbeat timeout.
WORKER_TIMEOUT_ENV_VAR = "REPRO_WORKER_TIMEOUT"


def provider_env_pin() -> str | None:
    """The ``REPRO_FFT_PROVIDER`` pin, normalised; ``None`` when unset.

    The value is stripped and lowercased exactly as registry lookups
    normalise names; it is **not** validated against the registry here —
    the resolution chain decides whether an unknown name is an error
    and whether an unavailable one falls back.
    """
    raw = os.environ.get(PROVIDER_ENV_VAR)
    if raw is None:
        return None
    raw = raw.strip().lower()
    return raw or None


def chunk_env_pin() -> int | None:
    """The ``REPRO_BATCH_CHUNK_WINDOWS`` pin; ``None`` when unset.

    Raises :class:`~repro.errors.ConfigurationError` for non-integer or
    non-positive values — a present-but-broken pin must fail loudly, not
    silently fall through to the default.
    """
    raw = os.environ.get(CHUNK_ENV_VAR)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{CHUNK_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(f"{CHUNK_ENV_VAR} must be >= 1, got {value}")
    return value


def worker_timeout_env_pin() -> float | None:
    """The ``REPRO_WORKER_TIMEOUT`` pin (seconds); ``None`` when unset.

    Bounds how long the fleet scheduler waits for a remote worker
    daemon's connect/handshake and how stale a heartbeat may go before
    the worker counts as dead.  Raises
    :class:`~repro.errors.ConfigurationError` for non-numeric or
    non-positive values — a present-but-broken pin must fail loudly.
    """
    raw = os.environ.get(WORKER_TIMEOUT_ENV_VAR)
    if raw is None or not raw.strip():
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{WORKER_TIMEOUT_ENV_VAR} must be a number (seconds), "
            f"got {raw!r}"
        ) from None
    if not value > 0:
        raise ConfigurationError(
            f"{WORKER_TIMEOUT_ENV_VAR} must be > 0, got {value}"
        )
    return value
