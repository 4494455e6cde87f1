"""The execution facade: one object that owns how analyses run.

:class:`Engine` is the single public entry point over everything the
performance PRs built — the batched Welch-Lomb driver, the FFT execution
provider registry and the sharded fleet runner.  It is constructed from
one declarative :class:`~repro.engine.config.EngineConfig`, resolves
every execution knob exactly once (provider, chunk size, jobs), warms
the plan caches for the resolved provider, and builds one
:class:`~repro.perf.ExecutionContext` from the resolved provider and
chunk size, its workspace arena and its profiler.  It enters that
context around every call of the four workloads it serves (the context
lives in a ``ContextVar``, so engines driven from several threads never
see each other's settings):

* :meth:`Engine.analyze` — one completed recording,
* :meth:`Engine.analyze_cohort` — many recordings over a **persistent**
  fleet pool (created lazily, reused across calls, released by
  :meth:`Engine.close` / the context-manager exit); the
  :class:`~repro.fleet.FleetRunner` runs this engine's config pinned to
  what it resolved (:meth:`EngineConfig.pinned`), and so do its pool
  processes and worker daemons,
* :meth:`Engine.open_stream` — a :class:`~repro.engine.streaming.StreamingSession`
  that accepts RR samples as they arrive and emits per-window spectra
  the moment each Welch window completes,
* :meth:`Engine.open_hub` — a :class:`~repro.engine.hub.StreamHub`
  multiplexing many concurrent streaming sessions (a streaming
  *cohort*), analysing the windows each feed round completes across
  sessions in one shared batch — over the persistent fleet pool when
  ``jobs > 1`` — with an asyncio push transport in
  :mod:`repro.engine.aio`.

All four routes drive the identical kernels through one choke point,
:func:`repro.lomb.welch.analyze_spans_quality`, and the kernel's one
batch entry, :meth:`repro.lomb.fast.FastLomb.periodogram_spans`, so
their per-window spectra are bit-identical by construction.
"""

from __future__ import annotations

from ..core.system import ConventionalPSA, PSAResult, QualityScalablePSA
from ..errors import ConfigurationError
from ..ffts.plancache import _BoundedCache, warm_execution_caches
from ..hrv.rr import RRSeries
from ..lomb.welch import analyze_spans_quality
from ..perf.context import ExecutionContext, execution
from ..perf.profiler import NULL_SPAN, StageProfiler
from ..perf.workspace import WorkspaceArena
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


#: The process's quality-variant PSA systems, keyed by what builds one:
#: ``(config.psa, config.bands, variant)``.  An engine and its fleet
#: runner (whose config is the engine's, pinned) therefore share every
#: entry, as do daemon clients whose configs differ only in how they
#: run.  Bounded: a worker daemon builds them from the configs its
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
    key = (config.psa, config.bands, variant)
    system = _VARIANT_SYSTEMS.get(key)
    if system is None:
        system_kind, pruning = variant
        system = build_system(
            config.replace(system=system_kind, pruning=pruning)
        )
        _VARIANT_SYSTEMS.put(key, system)
    return system


def span_owners(welch, config, variants):
    """The ``owners`` of a span batch, one quality variant per span.

    ``None`` (or ``config``'s own system and pruning) is ``welch``'s
    analyser, a ``(system_kind, PruningSpec)`` rung the analyser of its
    :func:`variant_system` over ``config``, the config ``welch`` was
    built from.  Returns ``None`` when every span runs on ``welch``.
    """
    if variants is None:
        return None
    base = (config.system, config.pruning)
    analyzers = {}
    for variant in set(variants):
        if variant is None or variant == base:
            analyzers[variant] = welch.analyzer
        else:
            analyzers[variant] = variant_system(config, variant).welch.analyzer
    if all(analyzer is welch.analyzer for analyzer in analyzers.values()):
        return None
    return [analyzers[variant] for variant in variants]


class Engine:
    """Resolved, warmed execution facade over one :class:`EngineConfig`.

    Parameters
    ----------
    config:
        The declarative analysis description; defaults to the paper's
        conventional system with auto-resolved execution settings.

    The engine is cheap after the first construction for a given
    geometry — kernels come from the shared plan cache — and safe to
    use as a context manager; :meth:`close` only releases the optional
    fleet pool.
    """

    def __init__(self, config: EngineConfig | None = None):
        if config is None:
            config = EngineConfig()
        elif not isinstance(config, EngineConfig):
            raise ConfigurationError(
                f"config must be an EngineConfig, got {type(config).__name__}"
            )
        self.config = config
        self._system = build_system(config)
        self.resolved = config.resolve()
        analyzer = self._system.welch.analyzer
        warm_execution_caches(
            analyzer.workspace_size, analyzer.order, self.resolved.provider
        )
        self._fleet = None
        # The engine owns its workspace arena (shared by every workload
        # it serves, like the plan caches) and its per-stage profiler.
        self._arena = WorkspaceArena() if config.arena else None
        self._profiler = StageProfiler() if config.profile else None
        # Every workload runs under this one context (entered per call,
        # so engines used from several threads never share state), and
        # results cannot depend on which entry point ran them.
        self._context = ExecutionContext(
            provider=self.resolved.provider,
            chunk_windows=self.resolved.chunk_windows,
            arena=self._arena,
            profiler=self._profiler,
        )

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

    def _profile_span(self, stage: str):
        """A span on this engine's profiler (no-op when profiling is off).

        For engine-owned stages that run outside the engine's context:
        the hub's flush wrapper and its concat and record steps.
        """
        if self._profiler is None:
            return NULL_SPAN
        return self._profiler.span(stage)

    def analyze(self, rr: RRSeries, count_ops: bool = False) -> PSAResult:
        """Run the full PSA over one completed RR recording."""
        with execution(self._context):
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
        with execution(self._context):
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

    def _analyze_spans_batch(
        self, times, values, spans, count_ops: bool, variants=None,
        corrected=None,
    ):
        """Run one span batch under this engine's execution policy.

        The streaming hub's choke-point hook: in-process under the
        engine's context, or dispatched over the persistent fleet
        pool when the resolved job count calls for workers — both
        bit-identical by the batch-composition-independence invariant.
        ``variants`` names each span's quality level (``None`` for the
        base config, else a ``(system_kind, PruningSpec)`` ladder rung);
        ``None`` runs every span at the base config.  In-process, the
        whole batch is one kernel call whose FFT stage runs once per
        level present (owners from :func:`span_owners`).  ``corrected``
        is the optional interpolated-beat 0/1 mask aligned with
        ``values``.  Returns the ``(LombBatch, MetricsBatch)`` pair, one
        row per span.
        """
        with execution(self._context):
            if self.resolved.jobs > 1 or self.resolved.workers:
                return self._ensure_fleet().run_spans(
                    times, values, spans, count_ops=count_ops,
                    variants=variants, corrected=corrected,
                )
            return analyze_spans_quality(
                self._system.welch.analyzer, times, values, spans,
                count_ops, corrected=corrected,
                owners=span_owners(self._system.welch, self.config, variants),
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
        """The persistent fleet runner, created on first cohort call.

        It runs this engine's config pinned to what the engine
        resolved, so however late it is built it runs the engine's
        provider, chunk size, jobs and workers.
        """
        if self._fleet is None:
            from ..fleet.runner import FleetRunner

            self._fleet = FleetRunner(self.config.pinned(self.resolved))
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
