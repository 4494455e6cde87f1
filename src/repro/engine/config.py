"""The declarative engine configuration: one serializable surface.

:class:`EngineConfig` collects everything the execution facade needs to
know — *what* to run (PSA system kind, pruning spec, pipeline geometry,
band edges) and *how* to run it (FFT execution provider, batch chunk
size, worker processes) — in one immutable dataclass that round-trips
losslessly through ``to_dict``/``from_dict`` and JSON.  A config file
written on one host fully describes an analysis on another.

Resolution of the execution knobs happens once, at
:meth:`EngineConfig.resolve`, with one documented precedence chain per
knob (environment pins are folded in *here*, via
:mod:`repro.envpins` — the one module that reads the process
environment):

====================  =================================================
provider              explicit argument → config field → process pin
                      (:func:`~repro.ffts.providers.registry.set_default_provider`)
                      → ``REPRO_FFT_PROVIDER`` env pin → autoselect
                      probe
chunk_windows         explicit argument → config field → process pin
                      (:func:`~repro.lomb.fast.set_batch_chunk_windows`)
                      → ``REPRO_BATCH_CHUNK_WINDOWS`` env pin →
                      per-host auto-tuner
jobs                  explicit argument → config field → one per CPU
worker_timeout        explicit argument → config field →
                      ``REPRO_WORKER_TIMEOUT`` env pin → 15 s default
====================  =================================================
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from ..core.config import PSAConfig
from ..errors import ConfigurationError
from ..ffts.pruning import PruningSpec
from ..hrv.bands import STANDARD_BANDS, FrequencyBand

__all__ = ["EngineConfig", "ResolvedExecution", "SYSTEM_KINDS"]

#: The two PSA system kinds the paper compares.
SYSTEM_KINDS = ("conventional", "quality-scalable")

#: CLI-style pruning mode names accepted by :meth:`EngineConfig.for_mode`.
_MODE_SPECS = {
    "exact": PruningSpec.none,
    "band": PruningSpec.band_only,
}


@dataclass(frozen=True)
class ResolvedExecution:
    """Concrete execution settings one :meth:`EngineConfig.resolve` chose.

    Attributes
    ----------
    provider:
        Resolved FFT execution provider name (always concrete).
    provider_source:
        Which precedence layer decided: ``"explicit"``, ``"config"``,
        ``"process-pin"``, ``"env"`` or ``"autoselect"``.
    chunk_windows:
        Resolved windows-per-sub-batch of the batched execution path.
    chunk_source:
        ``"explicit"``, ``"config"``, ``"env"`` or ``"autotuned"``.
    jobs:
        Concrete worker-process count for cohort runs (>= 1).
    jobs_source:
        ``"explicit"``, ``"config"`` or ``"cpu-count"``.
    workers:
        Remote worker daemon addresses (``host:port``) cohort runs
        schedule onto alongside the local slots; empty for local-only.
    workers_source:
        ``"explicit"``, ``"config"`` or ``"default"``.
    worker_timeout:
        Remote worker connect/heartbeat timeout in seconds (> 0).
    worker_timeout_source:
        ``"explicit"``, ``"config"``, ``"env"`` or ``"default"``.
    """

    provider: str
    provider_source: str
    chunk_windows: int
    chunk_source: str
    jobs: int
    jobs_source: str
    workers: tuple[str, ...] = ()
    workers_source: str = "default"
    worker_timeout: float = 15.0
    worker_timeout_source: str = "default"


@dataclass(frozen=True)
class EngineConfig:
    """Immutable, fully serializable configuration of the engine facade.

    Attributes
    ----------
    system:
        PSA system kind: ``"conventional"`` (split-radix baseline) or
        ``"quality-scalable"`` (the pruned wavelet-FFT system).
    pruning:
        Approximation spec of the quality-scalable system (ignored by
        the conventional one, but preserved through serialization).
    psa:
        Shared pipeline geometry (:class:`~repro.core.config.PSAConfig`:
        workspace size, Welch window/overlap, oversampling, band limit,
        wavelet basis, scaling).
    provider:
        FFT execution provider name to pin, or ``None`` to fall through
        the resolution chain (process pin → env pin → autoselect).
    chunk_windows:
        Batched-execution sub-batch size to pin, or ``None`` to fall
        through (env pin → per-host auto-tuner).
    jobs:
        Worker processes for cohort runs; ``None`` means one per CPU.
    workers:
        ``host:port`` addresses of remote fleet worker daemons
        (``python -m repro worker --listen HOST:PORT``) to schedule
        cohort shards onto alongside the local worker processes.  Empty
        (the default) keeps execution on this host.  Results are
        bit-identical either way: each daemon rebuilds the engine from
        this config and runs under the scheduler's resolved
        provider/chunk pins.
    worker_timeout:
        Remote worker connect/heartbeat timeout in seconds (> 0), or
        ``None`` to fall through the resolution chain
        (``REPRO_WORKER_TIMEOUT`` env pin → 15 s default).  Bounds how
        long the scheduler waits for a daemon's handshake and how stale
        a heartbeat may go before the worker counts as dead.
    slo:
        Optional :class:`~repro.engine.controller.SLOSpec`.  When set,
        every :class:`~repro.engine.StreamHub` this engine opens
        attaches a :class:`~repro.engine.controller.QualityController`
        that defends the SLO by stepping overloaded subjects down the
        paper's pruning-mode ladder (and back up with hysteresis when
        load recedes).  ``None`` (the default) keeps every subject at
        the configured quality forever.
    bands:
        Band-power integration edges reported in results (defaults to
        the standard ULF/VLF/LF/HF split).
    arena:
        When True (default) the engine owns a
        :class:`~repro.perf.WorkspaceArena` and every workload leases
        its kernel temporaries from it, making steady-state streaming
        allocate O(1) new arrays per flush.  Results are bit-identical
        either way; ``arena=False`` restores plain per-call allocation
        (mainly useful for memory benchmarking).
    profile:
        When True the engine owns a
        :class:`~repro.perf.StageProfiler` and activates it around
        every workload, accumulating per-stage timings (extirpolation,
        FFT dispatch, Lomb combine, assemble, hub flush) readable via
        :attr:`Engine.profiler`.  Off by default: the disabled path
        costs one None-check per kernel call.
    """

    system: str = "conventional"
    pruning: PruningSpec = PruningSpec.none()
    psa: PSAConfig = PSAConfig()
    provider: str | None = None
    chunk_windows: int | None = None
    jobs: int | None = 1
    workers: tuple[str, ...] = ()
    worker_timeout: float | None = None
    slo: "SLOSpec | None" = None
    bands: tuple[FrequencyBand, ...] = STANDARD_BANDS
    arena: bool = True
    profile: bool = False

    def __post_init__(self):
        if self.system not in SYSTEM_KINDS:
            raise ConfigurationError(
                f"system must be one of {SYSTEM_KINDS}, got {self.system!r}"
            )
        if not isinstance(self.pruning, PruningSpec):
            raise ConfigurationError("pruning must be a PruningSpec")
        if not isinstance(self.psa, PSAConfig):
            raise ConfigurationError("psa must be a PSAConfig")
        if self.provider is not None:
            from ..ffts.providers.registry import require_known

            object.__setattr__(self, "provider", require_known(self.provider))
        if self.chunk_windows is not None:
            if int(self.chunk_windows) < 1:
                raise ConfigurationError(
                    f"chunk_windows must be >= 1, got {self.chunk_windows}"
                )
            object.__setattr__(self, "chunk_windows", int(self.chunk_windows))
        if self.jobs is not None:
            if int(self.jobs) < 1:
                raise ConfigurationError(
                    f"jobs must be >= 1 (or None for one per CPU), "
                    f"got {self.jobs}"
                )
            object.__setattr__(self, "jobs", int(self.jobs))
        workers = tuple(self.workers)
        for address in workers:
            if not isinstance(address, str):
                raise ConfigurationError(
                    "workers must be 'host:port' strings, got "
                    f"{type(address).__name__}"
                )
            from ..fleet.transport import parse_address

            parse_address(address)
        object.__setattr__(self, "workers", workers)
        if self.worker_timeout is not None:
            try:
                timeout = float(self.worker_timeout)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    "worker_timeout must be a number (seconds), got "
                    f"{self.worker_timeout!r}"
                ) from None
            if not timeout > 0:
                raise ConfigurationError(
                    f"worker_timeout must be > 0, got {timeout}"
                )
            object.__setattr__(self, "worker_timeout", timeout)
        if self.slo is not None:
            from .controller import SLOSpec

            if not isinstance(self.slo, SLOSpec):
                raise ConfigurationError("slo must be an SLOSpec")
        bands = tuple(self.bands)
        for band in bands:
            if not isinstance(band, FrequencyBand):
                raise ConfigurationError("bands must be FrequencyBand entries")
        if not bands:
            raise ConfigurationError("bands must not be empty")
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "arena", bool(self.arena))
        object.__setattr__(self, "profile", bool(self.profile))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def for_mode(
        cls, mode: str, dynamic: bool = False, **overrides
    ) -> "EngineConfig":
        """Config for a CLI-style pruning mode name.

        ``"exact"`` selects the conventional system; ``"band"`` and
        ``"set1"``/``"set2"``/``"set3"`` select the quality-scalable
        system under the matching :class:`PruningSpec` (``dynamic``
        applies run-time twiddle pruning).  Additional keyword
        arguments become config fields (``provider=``, ``jobs=``, ...).
        """
        name = str(mode).strip().lower()
        if name in _MODE_SPECS:
            spec = _MODE_SPECS[name]()
            if dynamic:
                raise ConfigurationError(
                    f"mode {name!r} has no dynamic variant"
                )
        elif name.startswith("set") and name[3:] in ("1", "2", "3"):
            spec = PruningSpec.paper_mode(int(name[3:]), dynamic=dynamic)
        else:
            raise ConfigurationError(
                f"unknown pruning mode {name!r}; choose from "
                "exact, band, set1, set2, set3"
            )
        system = "conventional" if name == "exact" else "quality-scalable"
        return cls(system=system, pruning=spec, **overrides)

    def replace(self, **changes) -> "EngineConfig":
        """Copy with the given fields changed (dataclass ``replace``)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data (JSON-ready) representation of this config."""
        return {
            "system": self.system,
            "pruning": self.pruning.to_dict(),
            "psa": {
                "fft_size": self.psa.fft_size,
                "window_seconds": self.psa.window_seconds,
                "overlap": self.psa.overlap,
                "oversample": self.psa.oversample,
                "max_frequency": self.psa.max_frequency,
                "basis": self.psa.basis,
                "scaling": self.psa.scaling,
            },
            "provider": self.provider,
            "chunk_windows": self.chunk_windows,
            "jobs": self.jobs,
            "workers": list(self.workers),
            "worker_timeout": self.worker_timeout,
            "slo": None if self.slo is None else self.slo.to_dict(),
            "bands": [
                {"name": band.name, "low": band.low, "high": band.high}
                for band in self.bands
            ],
            "arena": self.arena,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        """Reconstruct a config from :meth:`to_dict` output.

        Missing keys take their defaults (a config file may specify only
        what it changes); unknown keys are a
        :class:`~repro.errors.ConfigurationError` — silently ignoring a
        typo like ``"chunk_window"`` would mis-run the analysis.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"engine config must be a mapping, got {type(data).__name__}"
            )
        known = {
            "system", "pruning", "psa", "provider", "chunk_windows",
            "jobs", "workers", "worker_timeout", "slo", "bands",
            "arena", "profile",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown engine config keys: {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        kwargs: dict = {}
        for key in (
            "system", "provider", "chunk_windows", "jobs",
            "worker_timeout", "arena", "profile",
        ):
            if key in data:
                kwargs[key] = data[key]
        if data.get("slo") is not None:
            from .controller import SLOSpec

            kwargs["slo"] = SLOSpec.from_dict(data["slo"])
        if "pruning" in data:
            kwargs["pruning"] = PruningSpec.from_dict(data["pruning"])
        if "psa" in data:
            psa = data["psa"]
            if not isinstance(psa, dict):
                raise ConfigurationError("psa must be a mapping")
            kwargs["psa"] = PSAConfig(**psa)
        if "workers" in data:
            workers = data["workers"]
            if isinstance(workers, str) or not hasattr(workers, "__iter__"):
                raise ConfigurationError(
                    "workers must be a list of 'host:port' strings"
                )
            kwargs["workers"] = tuple(workers)
        if "bands" in data:
            kwargs["bands"] = tuple(
                FrequencyBand(**band) for band in data["bands"]
            )
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(f"invalid engine config: {exc}") from None

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text of :meth:`to_dict` (round-trips losslessly)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "EngineConfig":
        """Reconstruct a config from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"engine config is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "EngineConfig":
        """Load a config from a JSON file path."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read engine config {path!r}: {exc}"
            ) from None
        return cls.from_json(text)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def resolve(
        self,
        provider: str | None = None,
        chunk_windows: int | None = None,
        jobs: int | None = None,
        workers=None,
        worker_timeout: float | None = None,
    ) -> ResolvedExecution:
        """Resolve every execution knob through its precedence chain.

        The arguments are per-call explicit pins (the top of each
        chain); everything below them is the config field, then the
        environment pins (read through :mod:`repro.envpins` — the env
        vars are folded in *here*, at resolve time, never stored in the
        config), then the automatic probes.  An env-pinned provider
        that is unavailable on this host falls back to ``"numpy"`` (the
        documented optional-dependency fallback); every other layer
        validates strictly.
        """
        from ..envpins import (
            chunk_env_pin,
            provider_env_pin,
            worker_timeout_env_pin,
        )
        from ..ffts.providers import registry

        workspace = self.psa.fft_size
        if provider is not None:
            provider = registry.require_known(provider)
            provider_name, provider_source = (
                registry.resolve_provider_name(provider, workspace),
                "explicit",
            )
        elif self.provider is not None:
            provider_name, provider_source = (
                registry.resolve_provider_name(self.provider, workspace),
                "config",
            )
        elif registry.get_default_provider_name() is not None:
            provider_name, provider_source = (
                registry.get_default_provider_name(),
                "process-pin",
            )
        elif provider_env_pin() is not None:
            # Delegate to the registry chain (we are below the explicit
            # and process-pin layers here) so "auto" and the
            # unavailable-provider fallback behave exactly as documented
            # there.
            provider_name, provider_source = (
                registry.resolve_provider_name(None, workspace),
                "env",
            )
        else:
            provider_name, provider_source = (
                registry.autoselect(workspace).provider,
                "autoselect",
            )

        from ..lomb.fast import get_batch_chunk_windows, get_chunk_override

        if chunk_windows is not None:
            chunk_windows = int(chunk_windows)
            if chunk_windows < 1:
                raise ConfigurationError(
                    f"chunk_windows must be >= 1, got {chunk_windows}"
                )
            chunk, chunk_source = chunk_windows, "explicit"
        elif self.chunk_windows is not None:
            chunk, chunk_source = self.chunk_windows, "config"
        elif get_chunk_override() is not None:
            chunk, chunk_source = get_chunk_override(), "process-pin"
        elif chunk_env_pin() is not None:
            chunk, chunk_source = chunk_env_pin(), "env"
        else:
            # get_batch_chunk_windows owns the memoised per-host probe
            # (override and env are both None here, so it falls through
            # to the tuner) — one cache, never re-probed per resolve.
            chunk, chunk_source = (
                get_batch_chunk_windows(workspace),
                "autotuned",
            )

        if jobs is not None:
            if int(jobs) < 1:
                raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
            n_jobs, jobs_source = int(jobs), "explicit"
        elif self.jobs is not None:
            n_jobs, jobs_source = self.jobs, "config"
        else:
            n_jobs, jobs_source = os.cpu_count() or 1, "cpu-count"

        if workers is not None:
            from ..fleet.transport import parse_address

            worker_list = tuple(workers)
            for address in worker_list:
                parse_address(address)
            workers_source = "explicit"
        elif self.workers:
            worker_list, workers_source = self.workers, "config"
        else:
            worker_list, workers_source = (), "default"

        if worker_timeout is not None:
            timeout = float(worker_timeout)
            if not timeout > 0:
                raise ConfigurationError(
                    f"worker_timeout must be > 0, got {worker_timeout}"
                )
            timeout_source = "explicit"
        elif self.worker_timeout is not None:
            timeout, timeout_source = self.worker_timeout, "config"
        elif worker_timeout_env_pin() is not None:
            timeout, timeout_source = worker_timeout_env_pin(), "env"
        else:
            from ..fleet.remote import DEFAULT_TIMEOUT

            timeout, timeout_source = DEFAULT_TIMEOUT, "default"

        return ResolvedExecution(
            provider=provider_name,
            provider_source=provider_source,
            chunk_windows=int(chunk),
            chunk_source=chunk_source,
            jobs=n_jobs,
            jobs_source=jobs_source,
            workers=worker_list,
            workers_source=workers_source,
            worker_timeout=float(timeout),
            worker_timeout_source=timeout_source,
        )
