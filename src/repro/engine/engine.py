"""The execution facade: one object that owns how analyses run.

:class:`Engine` is the single public entry point over everything the
performance PRs built — the batched Welch-Lomb driver, the FFT execution
provider registry, the per-host chunk tuner and the sharded fleet
runner.  It is constructed from one declarative
:class:`~repro.engine.config.EngineConfig`, resolves every execution
knob exactly once (provider, chunk size, jobs), warms the plan caches
for the resolved provider, and then serves three workloads through the
same pinned execution state:

* :meth:`Engine.analyze` — one completed recording,
* :meth:`Engine.analyze_cohort` — many recordings over a **persistent**
  fleet pool (created lazily, reused across calls, released by
  :meth:`Engine.close` / the context-manager exit),
* :meth:`Engine.open_stream` — a :class:`~repro.engine.streaming.StreamingSession`
  that accepts RR samples as they arrive and emits per-window spectra
  the moment each Welch window completes,
* :meth:`Engine.open_hub` — a :class:`~repro.engine.hub.StreamHub`
  multiplexing many concurrent streaming sessions (a streaming
  *cohort*), analysing the windows each feed round completes across
  sessions in one shared batch — over the persistent fleet pool when
  ``jobs > 1`` — with an asyncio push transport in
  :mod:`repro.engine.aio`.

All four routes drive the identical kernels through
:func:`repro.lomb.welch.analyze_spans`, so their per-window spectra are
bit-identical by construction.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

from ..core.system import ConventionalPSA, PSAResult, QualityScalablePSA
from ..errors import ConfigurationError
from ..ffts.plancache import _BoundedCache, warm_execution_caches
from ..hrv.rr import RRSeries
from ..lomb.fast import pinned_execution
from ..lomb.welch import analyze_spans_quality
from ..perf.profiler import NULL_SPAN, StageProfiler, profile_scope
from ..perf.workspace import WorkspaceArena, arena_scope
from .config import EngineConfig

__all__ = ["Engine", "build_system"]


def build_system(config: EngineConfig):
    """Construct the PSA system one config describes.

    ``"conventional"`` ignores the pruning spec (the split-radix
    baseline has nothing to prune); ``"quality-scalable"`` applies it.
    Either system's band-power integration edges are taken from the
    config.
    """
    if config.system == "conventional":
        system = ConventionalPSA(config.psa)
    else:
        system = QualityScalablePSA(config.psa, pruning=config.pruning)
    system.bands = config.bands
    return system


#: The process's quality-variant PSA systems, keyed by ``(config,
#: variant)``.  Bounded: a worker daemon builds them from the configs its
#: clients send.
_VARIANT_SYSTEMS = _BoundedCache(maxsize=32)


def variant_system(config: EngineConfig, variant):
    """The PSA system ``config`` describes at one quality variant.

    A variant is a ``(system_kind, PruningSpec)`` pair, one rung of the
    hub's degradation ladder, and its system is
    ``build_system(config.replace(system=..., pruning=...))``.  The
    engine, the fleet runner and the fleet task executor all resolve
    variants here, so a process builds each one once (kernels come from
    the shared plan caches) and every path runs the same objects.
    """
    key = (config, variant)
    system = _VARIANT_SYSTEMS.get(key)
    if system is None:
        system_kind, pruning = variant
        system = build_system(
            config.replace(system=system_kind, pruning=pruning)
        )
        _VARIANT_SYSTEMS.put(key, system)
    return system


class Engine:
    """Resolved, warmed execution facade over one :class:`EngineConfig`.

    Parameters
    ----------
    config:
        The declarative analysis description; defaults to the paper's
        conventional system with auto-resolved execution settings.
    system:
        Pre-built PSA system to wrap instead of building one from the
        config (the legacy entry points delegate through this so their
        existing kernel instances — and any caller-installed state —
        stay in use).  The config still decides execution settings.
    warm:
        Warm the resolved provider's execution caches at construction
        (default); disable only when constructing many engines whose
        providers are already warm.

    The engine is cheap after the first construction for a given
    geometry — kernels come from the shared plan cache — and safe to
    use as a context manager; :meth:`close` only releases the optional
    fleet pool.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        system=None,
        warm: bool = True,
    ):
        if config is None:
            config = EngineConfig()
        elif not isinstance(config, EngineConfig):
            raise ConfigurationError(
                f"config must be an EngineConfig, got {type(config).__name__}"
            )
        self.config = config
        self._system = system if system is not None else build_system(config)
        self.resolved = config.resolve()
        if warm:
            analyzer = self._system.welch.analyzer
            warm_execution_caches(
                analyzer.workspace_size, analyzer.order, self.resolved.provider
            )
        self._fleet = None
        # The engine owns its workspace arena (shared by every workload
        # it serves, like the plan caches) and its per-stage profiler;
        # both are installed scope-wise around workloads by _pinned().
        self._arena = WorkspaceArena() if config.arena else None
        self._profiler = StageProfiler() if config.profile else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def system(self):
        """The wrapped PSA system (conventional or quality-scalable)."""
        return self._system

    @property
    def welch(self):
        """The windowed Welch-Lomb engine driving this facade."""
        return self._system.welch

    @property
    def arena(self):
        """This engine's :class:`~repro.perf.WorkspaceArena` (or ``None``).

        Kernel temporaries of every workload the engine serves lease
        from it; :meth:`WorkspaceArena.stats` exposes hit/miss/footprint
        counters.  ``None`` when the config disabled it.
        """
        return self._arena

    @property
    def profiler(self):
        """This engine's :class:`~repro.perf.StageProfiler` (or ``None``).

        Populated only when the config enabled ``profile=True``; read
        accumulated stage timings via :meth:`StageProfiler.report` /
        :meth:`StageProfiler.format_report`.
        """
        return self._profiler

    @classmethod
    def from_json(cls, text: str) -> "Engine":
        """Engine over a config serialized with ``EngineConfig.to_json``."""
        return cls(EngineConfig.from_json(text))

    @classmethod
    def from_file(cls, path) -> "Engine":
        """Engine over a JSON config file."""
        return cls(EngineConfig.from_file(path))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @contextmanager
    def _pinned(self):
        """Install this engine's execution state for the calling block.

        Every workload this engine serves executes under the same
        provider/chunk process pins, the engine's workspace arena (when
        enabled) and its profiler (when enabled), so results cannot
        depend on which entry point ran them; all previous state is
        restored on exit (engines must not leak state into code that
        never asked for them).
        """
        with ExitStack() as stack:
            stack.enter_context(
                pinned_execution(
                    self.resolved.provider, self.resolved.chunk_windows
                )
            )
            if self._arena is not None:
                stack.enter_context(arena_scope(self._arena))
            if self._profiler is not None:
                stack.enter_context(profile_scope(self._profiler))
            yield

    def _profile_span(self, stage: str):
        """A span on this engine's profiler (no-op when profiling is off).

        For engine-owned stages that run *outside* :meth:`_pinned`:
        the hub's flush wrapper and its concat and record steps.
        """
        if self._profiler is None:
            return NULL_SPAN
        return self._profiler.span(stage)

    def analyze(self, rr: RRSeries, count_ops: bool = False) -> PSAResult:
        """Run the full PSA over one completed RR recording."""
        with self._pinned():
            return self._system.analyze(rr, count_ops=count_ops)

    def analyze_cohort(
        self, recordings, count_ops: bool = False
    ) -> list[PSAResult]:
        """Run the full PSA over many recordings with the fleet engine.

        Recordings may be :class:`RRSeries` or ``(times, values)``
        pairs.  The worker pool (``jobs > 1``) is created on first use
        and **persists across calls** — the serving pattern pays the
        fork/initialise cost once; :meth:`close` releases it.
        """
        runner = self._ensure_fleet()
        with self._pinned():
            welch_results = runner.run(list(recordings), count_ops=count_ops)
            return [self._system._finalize(welch) for welch in welch_results]

    def open_stream(self, count_ops: bool = False):
        """Open a :class:`StreamingSession` for incremental ingestion.

        The session accepts RR samples as they arrive (``feed`` /
        ``feed_record``), emits each Welch window's spectrum as soon as
        the window completes, and finalizes into the same
        :class:`~repro.core.system.PSAResult` a whole-recording
        :meth:`analyze` call would produce — bit-identically.
        """
        from .streaming import StreamingSession

        return StreamingSession(self, count_ops=count_ops)

    def open_hub(self, count_ops: bool = False):
        """Open a :class:`~repro.engine.hub.StreamHub` for a streaming cohort.

        The hub multiplexes many concurrent streaming sessions — one
        per subject — and analyses the windows each feed round
        completes *across sessions* in one shared batch (over the
        persistent fleet pool when this engine resolved ``jobs > 1``),
        while preserving every session's bit-identical finalization.
        """
        from .hub import StreamHub

        return StreamHub(self, count_ops=count_ops)

    def _system_for_variant(self, variant):
        """The PSA system for one quality variant (``None`` = base).

        A variant is a ``(system_kind, PruningSpec)`` pair — a rung of
        the hub's degradation ladder — resolved through the process-wide
        :func:`variant_system` memo.  The pair *is* the identity of the
        computation, which is what makes a pinned mode-M subject
        bit-identical to a homogeneous mode-M engine.
        """
        if variant is None or variant == (
            self.config.system, self.config.pruning
        ):
            return self._system
        return variant_system(self.config, variant)

    def _analyze_spans_batch(
        self, times, values, spans, count_ops: bool, variants=None,
        corrected=None,
    ):
        """Run one span batch under this engine's execution policy.

        The streaming hub's choke-point hook: in-process under the
        pinned provider/chunk, or dispatched over the persistent fleet
        pool when the resolved job count calls for workers — both
        bit-identical by the batch-composition-independence invariant.
        ``variants`` names each span's quality level (``None`` for the
        base config, else a ``(system_kind, PruningSpec)`` ladder rung);
        ``None`` runs every span at the base config.  In-process, the
        whole batch is one kernel call whose FFT stage runs once per
        level present.  ``corrected`` is the optional interpolated-beat
        0/1 mask aligned with ``values``.  Returns ``(spectra,
        metrics)`` with one :class:`~repro.hrv.metrics.WindowMetrics`
        per span.
        """
        with self._pinned():
            if self.resolved.jobs > 1 or self.resolved.workers:
                return self._ensure_fleet().run_spans(
                    times, values, spans, count_ops=count_ops,
                    variants=variants, corrected=corrected,
                )
            owners = None
            if variants is not None:
                analyzers = {
                    variant: self._system_for_variant(variant).welch.analyzer
                    for variant in set(variants)
                }
                owners = [analyzers[variant] for variant in variants]
            return analyze_spans_quality(
                self._system.welch.analyzer, times, values, spans,
                count_ops, corrected=corrected, owners=owners,
            )

    def execution_stats(self) -> dict:
        """Observability snapshot of this engine's execution machinery.

        One plain-data dict (JSON-ready) collecting the resolved
        execution settings, the workspace arena's reuse counters
        (``None`` when the arena is disabled), the process-wide plan
        caches' LRU counters, and — when a fleet pool with remote
        workers exists — the per-worker transport byte/reconnect
        counters.  The service gateway's ``GET /v1/stats`` endpoint is
        built on this.
        """
        from ..ffts.plancache import plan_cache_detail

        return {
            "resolved": {
                "provider": self.resolved.provider,
                "provider_source": self.resolved.provider_source,
                "chunk_windows": self.resolved.chunk_windows,
                "jobs": self.resolved.jobs,
                "workers": list(self.resolved.workers),
            },
            "arena": None if self._arena is None else self._arena.stats(),
            "plan_cache": plan_cache_detail(),
            "transport": (
                {} if self._fleet is None else self._fleet.transport_stats()
            ),
        }

    # ------------------------------------------------------------------
    # Fleet pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_fleet(self):
        """The persistent fleet runner, created on first cohort call."""
        if self._fleet is None:
            from ..fleet.runner import FleetRunner

            self._fleet = FleetRunner(
                welch=self._system.welch,
                n_jobs=self.resolved.jobs,
                chunk_windows=self.resolved.chunk_windows,
                provider=self.resolved.provider,
                arena=self.config.arena,
                workers=self.resolved.workers,
                worker_timeout=self.resolved.worker_timeout,
                config=self.config,
            )
        return self._fleet

    def close(self) -> None:
        """Release the persistent fleet pool, if one was created."""
        fleet, self._fleet = self._fleet, None
        if fleet is not None:
            fleet.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
