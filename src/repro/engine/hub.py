"""Streaming cohorts: many concurrent sessions, one shared batch.

A :class:`StreamHub` (opened with :meth:`repro.engine.Engine.open_hub`)
owns one :class:`~repro.engine.streaming.StreamingSession` per subject
and multiplexes their analysis.  Feeding a hub-owned session does not
analyse anything by itself: the windows each feed completes join the
hub's *pending set*, and :meth:`StreamHub.flush` analyses everything
pending — across all subjects — in **one** batched call through
:func:`repro.lomb.welch.analyze_spans_quality`, the same choke point
every other execution mode uses.  N trickling monitors therefore get
dense-kernel throughput (one batch of N windows per feed round) instead
of N tiny per-session batches; when the owning engine resolved
``jobs > 1``, the shared batch is dispatched over the engine's
persistent fleet pool (:meth:`repro.fleet.runner.FleetRunner.run_spans`)
through the existing shared-memory transport.

The shared batch is built by concatenating the pending windows' sample
slices back to back — exactly the copies the batch kernel would make
per window anyway — so deferral and multiplexing change *when* spectra
are computed, never what they are: per-window kernels are
batch-composition-independent (the invariant the fleet's sharded merges
rely on), hence every subject's :meth:`finalize` stays bit-identical
(spectrogram *and* :class:`~repro.ffts.opcount.OpCounts`) to a
whole-recording :meth:`Engine.analyze`, regardless of how feeds from
different subjects interleave.

Subjects the quality controller has shed to different ladder levels
still share the one batch.  A level changes only the Fast-Lomb FFT
stage, so each span carries its level and the kernel runs the FFT once
per level present and every other stage once over all spans.

Typical ward-monitor use::

    with Engine(config) as engine:
        hub = engine.open_hub()
        for events in beat_rounds:            # [(subject, t, rr), ...]
            emitted = hub.feed_round(events)  # one shared batch
            for subject, emissions in emitted.items():
                update_monitor(subject, emissions)
        results = hub.finalize_all()          # == per-subject analyze()

For push-based async ingestion (``await session.feed(...)``,
``async for emission in session``, ``await hub.serve(reader)``) see
:mod:`repro.engine.aio`.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from ..errors import ConfigurationError, SignalError
from ..hrv.rr import RRSeries
from ..perf.workspace import Scratch
from .controller import QualityController, degradation_ladder
from .streaming import StreamingSession

__all__ = ["StreamHub"]


class StreamHub:
    """Multiplexer of many concurrent streaming sessions over one engine.

    Built by :meth:`repro.engine.Engine.open_hub`; not constructed
    directly.  Subjects are keyed by an arbitrary hashable id (patient
    ids, device serials); feeding an unseen subject opens its session
    on the spot.  All sessions share the owning engine's resolved
    execution state, and their pending windows are analysed together by
    :meth:`flush` — in-process under the engine's pins, or over the
    engine's persistent fleet pool when it resolved ``jobs > 1``.
    """

    def __init__(self, engine, count_ops: bool = False):
        self._engine = engine
        self._count_ops = bool(count_ops)
        self._sessions: dict = {}
        # Pending completed windows across all sessions, in feed order:
        # (session, window start, buffer lo, buffer hi).  Buffer indices
        # stay valid until the owning session compacts, which flush only
        # does after analysing them.
        self._pending: list[tuple[StreamingSession, float, int, int]] = []
        # subject_id -> AsyncStreamingSession, maintained by repro.engine.aio.
        self._async_sessions: dict = {}
        # Serialises emission delivery: two concurrent flush deliveries
        # interleaving could hand one subject its windows out of order.
        self._deliver_lock = asyncio.Lock()
        self._closed = False
        # Quality-adaptive control: the degradation ladder this hub's
        # subjects can run at (level 0 = the configured quality) and,
        # when the engine config carries an SLOSpec, the controller that
        # moves them along it after each flush.  The clock and the
        # flush-latency hook are injectable so the fault harness
        # (repro.testing.faults) can skew time and inject latency
        # deterministically.
        self.ladder = degradation_ladder(engine.config)
        #: Quality-level histogram of the most recent flush
        #: (``{level: windows}``); empty before the first flush.  Read
        #: by observers — the shedding benchmark and the fault
        #: harness's latency cost model — after each flush.
        self.last_flush_levels: dict = {}
        self._clock = time.perf_counter
        self._flush_latency_fault = None
        if engine.config.slo is not None:
            self._controller = QualityController(
                self, engine.config.slo, clock=lambda: self._clock()
            )
        else:
            self._controller = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def engine(self):
        """The owning :class:`~repro.engine.Engine`."""
        return self._engine

    @property
    def subjects(self) -> tuple:
        """Subject ids with an open session, in first-seen order."""
        return tuple(self._sessions)

    @property
    def pending_windows(self) -> int:
        """Completed windows waiting for the next :meth:`flush`."""
        return len(self._pending)

    def session(self, subject_id) -> StreamingSession:
        """The subject's session (:class:`SignalError` if unknown)."""
        try:
            return self._sessions[subject_id]
        except KeyError:
            raise SignalError(
                f"unknown subject {subject_id!r}; open it or feed it first"
            ) from None

    def async_session(self, subject_id):
        """The subject's live async endpoint (:meth:`open_async`), or ``None``.

        An endpoint deregisters itself when it ends (finalized,
        ``aclose``'d or the hub closed), so an ended one — whose
        bounded queue has no reader left — is never returned.
        """
        return self._async_sessions.get(subject_id)

    # ------------------------------------------------------------------
    # Quality control
    # ------------------------------------------------------------------

    @property
    def controller(self):
        """The attached :class:`QualityController`, or ``None``.

        Present exactly when the owning engine's config carries an
        :class:`~repro.engine.controller.SLOSpec`.
        """
        return self._controller

    def quality_level(self, subject_id) -> int:
        """The subject's current degradation-ladder level (0 = full)."""
        return self.session(subject_id)._quality_level

    def set_quality(self, subject_id, level: int, pin: bool = True) -> None:
        """Set (and by default pin) a subject's quality level.

        A pinned subject is exempt from controller decisions — both
        step-downs and recovery — until re-set with ``pin=False``.
        Levels index :attr:`ladder`; the new level applies from the next
        flush on (windows already analysed keep their recorded quality).
        """
        session = self.session(subject_id)
        level = int(level)
        if not 0 <= level < len(self.ladder):
            raise ConfigurationError(
                f"quality level must be in [0, {len(self.ladder) - 1}], "
                f"got {level}"
            )
        session._quality_level = level
        session._quality_pinned = bool(pin)

    def set_tier(self, subject_id, tier: str | None) -> None:
        """Assign a subject to a policy tier.

        Tiers only matter under an :class:`SLOSpec` with
        ``tier_floors``: a tiered subject sheds no deeper than its
        tier's floor (tier ``None`` clears the assignment).
        """
        if tier is not None and (not isinstance(tier, str) or not tier):
            raise ConfigurationError(
                f"tier must be a non-empty string or None, got {tier!r}"
            )
        self.session(subject_id).tier = tier

    def controller_stats(self) -> dict:
        """The controller's decision log, levels and counters.

        Raises :class:`~repro.errors.ConfigurationError` when the
        engine config carries no :class:`SLOSpec` — asking a hub that
        cannot shed for its shedding record is a configuration mistake,
        not an empty answer.
        """
        if self._controller is None:
            raise ConfigurationError(
                "hub has no quality controller: configure "
                "EngineConfig(slo=SLOSpec(...)) to enable load shedding"
            )
        return self._controller.stats()

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def open(self, subject_id) -> StreamingSession:
        """Open (and register) the subject's streaming session.

        The returned session is hub-owned: its ``feed`` defers analysis
        to the hub's shared batch and returns ``[]`` — emissions come
        back from :meth:`flush` (or the session's ``emissions`` record).
        """
        self._check_open()
        if subject_id in self._sessions:
            raise SignalError(f"subject {subject_id!r} is already open")
        session = StreamingSession(self._engine, count_ops=self._count_ops)
        session._hub = self
        session.subject_id = subject_id
        self._sessions[subject_id] = session
        return session

    def open_async(
        self, subject_id, *, max_queue: int | None = None,
        attach: bool = False,
    ):
        """Open the subject as an async push/pull session.

        Returns an :class:`~repro.engine.aio.AsyncStreamingSession`
        (``await feed(...)`` / ``async for emission in session``) whose
        emission queue is bounded by ``max_queue`` — a slow consumer
        backpressures the feeder.  ``attach=True`` re-binds an existing
        subject whose previous async endpoint was closed (the
        reconnect path — see :class:`AsyncStreamingSession`).
        """
        from .aio import AsyncStreamingSession

        if max_queue is None:
            return AsyncStreamingSession(self, subject_id, attach=attach)
        return AsyncStreamingSession(
            self, subject_id, max_queue=max_queue, attach=attach
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def feed(self, subject_id, times, values, corrected=None) -> int:
        """Feed samples to a subject (opening it on first sight).

        Validation and window-completion rules are the session's
        (:meth:`StreamingSession.feed`); completed windows join the
        pending set instead of being analysed.  ``corrected``
        optionally marks interpolated beats (it feeds the per-window
        quality flags).  Returns the number of windows this feed
        completed (now pending).
        """
        self._check_open()
        session = self._sessions.get(subject_id)
        if session is None:
            session = self.open(subject_id)
        before = len(self._pending)
        session.feed(times, values, corrected)
        return len(self._pending) - before

    def feed_record(self, subject_id, rr: RRSeries) -> int:
        """Feed a whole :class:`RRSeries` chunk to a subject."""
        if not isinstance(rr, RRSeries):
            raise SignalError("feed_record expects an RRSeries")
        return self.feed(subject_id, rr.times, rr.intervals, rr.corrected)

    def feed_round(self, events) -> dict:
        """Feed one round of interleaved events, then flush once.

        ``events`` is an iterable of ``(subject_id, times, values)``
        triples — or ``(subject_id, times, values, corrected)``
        4-tuples, the shape :mod:`repro.ingest` sources emit — the way
        a ward of wearables delivers each uplink round.  All windows
        the round completes, across every subject, are analysed in one
        shared batch; returns :meth:`flush`'s
        ``{subject_id: [WindowEmission, ...]}`` mapping.
        """
        for subject_id, times, values, *rest in events:
            self.feed(subject_id, times, values, *rest)
        return self.flush()

    def _enqueue(self, session: StreamingSession, pending) -> None:
        """Session callback: completed windows join the shared batch."""
        self._check_open()
        for start, (lo, hi) in pending:
            self._pending.append((session, start, lo, hi))

    # ------------------------------------------------------------------
    # Shared-batch analysis
    # ------------------------------------------------------------------

    def flush(self) -> dict:
        """Analyse every pending window in one shared batch.

        Returns ``{subject_id: [WindowEmission, ...]}`` for the subjects
        that emitted, in feed order per subject.  The batch mixes every
        subject's quality level.  It runs through the engine: in-process
        under its pinned provider/chunk as one kernel call, whose FFT
        stage runs once per level present, or over its persistent fleet
        pool when it resolved ``jobs > 1``.  When a quality controller
        is attached, the flush's latency and backlog feed its control
        loop — its decisions take effect from the *next* flush.
        """
        backlog = len(self._pending)
        t0 = self._clock()
        with self._engine._profile_span("hub_flush"):
            emitted = self._analyze_pending(self._pending)
        # Cleared only after the batch succeeded: a failing analysis
        # (say a fleet worker died mid-flush) must keep the round's
        # windows pending for a retry, not silently drop spectrogram
        # rows from every affected subject's finalize.
        self._pending = []
        elapsed = self._clock() - t0
        if self._flush_latency_fault is not None:
            # Fault-harness hook: injected latency is *added to the
            # observation*, never slept — chaos tests steer the
            # controller without slowing the suite down.
            elapsed += float(self._flush_latency_fault(self, backlog, elapsed))
        if self._controller is not None:
            self._controller.observe(elapsed, backlog, emitted)
        return emitted

    def _analyze_pending(self, pending) -> dict:
        self.last_flush_levels = {}
        if not pending:
            return {}
        engine = self._engine
        # Every pending window joins one span batch, whatever its
        # subject's quality level: each span carries its session's
        # *effective* level, and the kernel runs every stage but the FFT
        # once over all spans and the FFT once per level present.
        # Per-window kernels are independent of batch composition, so a
        # subject at level L here is bit-identical to the same windows
        # under a homogeneous level-L engine.
        with Scratch(engine.arena) as ws:
            with engine._profile_span("concat"):
                variants: list = []
                levels: list[int] = []
                histogram: dict[int, int] = {}
                for session, _, _, _ in pending:
                    variant, level = session._effective_variant()
                    variants.append(variant)
                    levels.append(level)
                    histogram[level] = histogram.get(level, 0) + 1
                self.last_flush_levels = histogram
                # Concatenate the sample slices back to back — the same
                # copies the batch kernel makes per window.  The buffers
                # lease from the engine's arena, so at steady state each
                # flush reuses the previous round's storage; the
                # analysis only reads them and the batches it returns
                # are freshly allocated, so releasing on exit is safe.
                edges = np.zeros(len(pending) + 1, dtype=np.int64)
                np.cumsum(
                    [hi - lo for _, _, lo, hi in pending], out=edges[1:]
                )
                bounds = edges.tolist()
                spans = tuple(zip(bounds[:-1], bounds[1:]))
                t_cat = ws.take((bounds[-1],))
                x_cat = ws.take((bounds[-1],))
                c_cat = ws.take((bounds[-1],))
                for (session, _, lo, hi), dst_lo, dst_hi in zip(
                    pending, bounds[:-1], bounds[1:]
                ):
                    t_cat[dst_lo:dst_hi] = session._times[lo:hi]
                    x_cat[dst_lo:dst_hi] = session._values[lo:hi]
                    c_cat[dst_lo:dst_hi] = session._corrected[lo:hi]
            spectra, metrics = engine._analyze_spans_batch(
                t_cat, x_cat, spans, self._count_ops,
                variants=variants, corrected=c_cat,
            )
        with engine._profile_span("record"):
            emitted: dict = {}
            touched: dict = {}
            for (session, start, lo, hi), spectrum, window, level in zip(
                pending, spectra, metrics, levels
            ):
                emission = session._record(
                    start, lo, hi, spectrum, window, quality=level
                )
                emitted.setdefault(session.subject_id, []).append(emission)
                touched[id(session)] = session
            for session in touched.values():
                # flush always takes a session's *whole* deferred set,
                # so nothing references its buffer anymore: safe to
                # compact.
                session._deferred = 0
                session._compact()
        return emitted

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finalize(self, subject_id):
        """Finalize one subject (flushing the shared batch first).

        Returns the subject's :class:`~repro.core.system.PSAResult` —
        bit-identical to :meth:`Engine.analyze` of the same samples.
        The session stays registered (its result is idempotent).
        """
        return self.session(subject_id).finalize()

    def finalize_all(self) -> dict:
        """Finalize every subject; ``{subject_id: PSAResult}``.

        The trailing windows the recording ends resolve are themselves
        analysed as one shared cross-subject batch before per-subject
        assembly.  A subject too short to analyse raises
        :class:`SignalError` naming it.
        """
        if not self._sessions:
            raise SignalError("hub has no subjects: nothing to finalize")
        self.flush()
        # Validate every subject and collect every tail *before* any
        # analysis or assembly, so a doomed subject (too short, or no
        # analysable window at all) fails the call without mutating its
        # siblings; the emit-once guard below makes a retry after any
        # later failure safe (tails are never re-recorded).
        tails: list[tuple[StreamingSession, float, int, int]] = []
        tailed: list[StreamingSession] = []
        for subject_id, session in self._sessions.items():
            if session.finalized or session._tail_emitted:
                continue
            try:
                session._check_finalizable()
            except SignalError as exc:
                raise SignalError(f"subject {subject_id!r}: {exc}") from None
            tail = session._tail_pending()
            if not session._emissions and not tail:
                raise SignalError(
                    f"subject {subject_id!r}: no analysable windows: "
                    "recording too short or too sparse"
                )
            for start, (lo, hi) in tail:
                tails.append((session, start, lo, hi))
            tailed.append(session)
        self._analyze_pending(tails)
        for session in tailed:
            session._skipped += session._tail_skips
            session._tail_emitted = True
        results: dict = {}
        for subject_id, session in self._sessions.items():
            try:
                results[subject_id] = session.finalize()
            except SignalError as exc:
                raise SignalError(f"subject {subject_id!r}: {exc}") from None
        return results

    # ------------------------------------------------------------------
    # Async transport
    # ------------------------------------------------------------------

    async def serve(self, events, *, round_events: int = 64,
                    finalize: bool = True):
        """Serve an (a)sync iterator of interleaved subject events.

        See :func:`repro.engine.aio.serve`, which this delegates to:
        pulls ``(subject_id, times, values)`` events, flushes the
        shared batch every ``round_events`` events, delivers emissions
        to async consumers with backpressure, and (by default)
        finalizes every subject when the source is exhausted.
        """
        from .aio import serve

        return await serve(
            self, events, round_events=round_events, finalize=finalize
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise SignalError("hub is closed")

    def close(self) -> None:
        """Close the hub: further feeds are rejected.

        Pending (un-flushed) windows are discarded — call
        :meth:`finalize_all` first if the results matter.  Sessions
        already finalized keep their results; async consumers receive
        the end-of-stream marker so nobody is left awaiting a dead
        queue.  Idempotent.
        """
        self._closed = True
        pending, self._pending = self._pending, []
        for session, _, _, _ in pending:
            # Discarded windows can never be re-discovered (their
            # session's window cursor is already past them), so a later
            # finalize would silently return an incomplete spectrogram
            # — poison it to fail loudly instead.
            session._lost_windows = True
        for async_session in list(self._async_sessions.values()):
            async_session._end()
        self._async_sessions.clear()

    def __enter__(self) -> "StreamHub":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
