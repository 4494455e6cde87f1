"""Streaming ingestion: window-at-a-time PSA over arriving RR samples.

A :class:`StreamingSession` (opened with
:meth:`repro.engine.Engine.open_stream`) accepts RR samples
incrementally — one beat at a time or in arbitrary ragged chunks — and
emits each Welch window's Lomb spectrum the moment the window
*completes*, i.e. as soon as a sample at or past the window's right
edge arrives.  This is the online-monitoring shape of wavelet-based
streaming HRV analysers: spectra become available with one-window
latency instead of after the whole recording.

Bit-identity with the batch path is a hard guarantee, not an
aspiration.  The session reproduces the Welch window layout of
:func:`repro.lomb.welch.iter_windows` *exactly* — the same float
accumulation of start times, the same ``searchsorted`` edge rule, the
same half-window keep filter and minimum-beat skip counter — and routes
every emitted window through
:func:`repro.lomb.welch.analyze_spans_quality`, the identical choke
point the whole-recording driver and the fleet workers use, under the
owning engine's pinned provider and chunk size.
Because every per-window kernel is batch-composition-independent (the
invariant the fleet's sharded merges already rely on), feeding a
recording sample-by-sample produces the same spectrogram, Welch
average and operation counts — bit for bit — as analysing the
completed recording in one call.

A window is only *final* once a sample at or beyond its right edge has
been seen (earlier samples can no longer arrive: times are strictly
increasing), so interior windows stream out as data flows and the
trailing partial window — whose extent depends on where the recording
ends — is resolved by :meth:`StreamingSession.finalize`, which returns
the same :class:`~repro.core.system.PSAResult` the batch path builds.

Memory is bounded: samples that precede the earliest window start the
session could still need are compacted away once enough of them
accumulate (the dropped count is tracked so :attr:`n_samples` keeps
reporting the whole stream), so a 24 h monitor holds roughly one window
of beats plus the compaction slack — not every beat since midnight.

A session may be owned by a :class:`~repro.engine.hub.StreamHub`, in
which case the windows a feed completes are *deferred*: the hub collects
them across all of its sessions and analyses them in one shared batch
(``feed`` then returns ``[]`` and the emissions come back from
:meth:`StreamHub.flush`).  Deferral changes when spectra are computed,
never what they are — per-window kernels are batch-composition
independent, so the bit-identity guarantee is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SignalError
from ..hrv.metrics import MetricsBatch, WindowMetrics
from ..hrv.rr import RRSeries
from ..lomb.fast import LombBatch, LombSpectrum
from ..lomb.welch import (
    MIN_BEATS_PER_WINDOW,
    analyze_spans_quality,
    assemble_result,
)
from ..perf.context import execution
from .engine import span_owners
from ..perf.workspace import Scratch

__all__ = ["StreamingSession", "WindowEmission"]

#: Initial sample-buffer capacity (doubles as the recording grows).
_INITIAL_CAPACITY = 1024

#: Compact the sample buffer only once at least this many leading
#: samples are droppable — keeps the shift cost amortised (each sample
#: is moved O(1) times) while bounding the buffer to roughly one window
#: of beats plus this slack.
_COMPACT_MIN_DROPPABLE = 2048


@dataclass(frozen=True)
class WindowEmission:
    """One completed Welch window, emitted as soon as it closed.

    Attributes
    ----------
    index:
        Position of this window in the final spectrogram (row index).
    start:
        Nominal window start time (seconds, the Welch grid position).
    center:
        Centre time of the window's actual samples — matches
        ``WelchLombResult.window_times[index]``.
    spectrum:
        The window's Lomb spectrum, a row of its flush's batch
        (identical to ``WelchLombResult.window_spectra[index]``).
    quality:
        Degradation-ladder level this window was computed at (0 = the
        configured quality; deeper levels are the paper's pruning modes
        an SLO controller shed the subject to — see
        :mod:`repro.engine.controller`).  Always 0 outside a hub with
        an :class:`~repro.engine.controller.SLOSpec` configured.
    metrics:
        Per-window time-domain metrics and quality flags
        (:class:`~repro.hrv.metrics.WindowMetrics`, a batch row),
        computed from the same beat span as the spectrum — matches
        ``WelchLombResult.window_metrics[index]``.
    """

    index: int
    start: float
    center: float
    spectrum: LombSpectrum
    quality: int = 0
    metrics: WindowMetrics | None = None


class StreamingSession:
    """Incremental RR ingestion with per-window spectral emission.

    Built by :meth:`repro.engine.Engine.open_stream`; not constructed
    directly.  Typical use::

        with Engine(config) as engine:
            session = engine.open_stream()
            for t, rr in beat_source:          # arrives over time
                for emission in session.feed(t, rr):
                    update_monitor(emission.center, emission.spectrum)
            result = session.finalize()        # == engine.analyze(...)

    ``feed`` accepts scalars or array chunks; emissions are returned
    from the ``feed`` call that completed them.  ``finalize`` analyses
    the trailing window(s) and assembles the full
    :class:`~repro.core.system.PSAResult`.
    """

    def __init__(self, engine, count_ops: bool = False):
        welch = engine.welch
        self._engine = engine
        self._analyzer = welch.analyzer
        self._window_seconds = float(welch.window_seconds)
        self._step = float(welch.window_seconds) * (1.0 - float(welch.overlap))
        self._count_ops = bool(count_ops)
        self._times = np.empty(_INITIAL_CAPACITY)
        self._values = np.empty(_INITIAL_CAPACITY)
        # Interpolated-beat provenance, kept as float64 0/1 so the same
        # buffer layout flows through every transport (the fleet's
        # shared-memory store is float64-only); an all-zeros mask is
        # bit-equivalent to "no provenance" in window_metrics_batch.
        self._corrected = np.zeros(_INITIAL_CAPACITY)
        self._n = 0
        self._dropped = 0
        self._next_start: float | None = None
        self._emissions: list[WindowEmission] = []
        self._skipped = 0
        self._result = None
        self._tail_emitted = False
        self._tail_skips = 0
        # Set by StreamHub.close when it discards this session's
        # pending (analysed-never) windows: finalize must fail loudly
        # rather than return a result missing those rows.
        self._lost_windows = False
        # Windows handed to the owning hub and not yet analysed; their
        # spans reference this buffer, so compaction must wait for zero.
        self._deferred = 0
        # Set by StreamHub.open for hub-owned sessions; a hub defers the
        # analysis of completed windows to its shared cross-session batch.
        self._hub = None
        self.subject_id: str | None = None
        # Quality-adaptive state (hub sessions only; plain streams stay
        # at level 0 forever).  The level indexes the hub's degradation
        # ladder and is read at *analysis* time — a controller decision
        # between flushes never reinterprets already-analysed windows.
        self._quality_level = 0
        self._quality_pinned = False
        self.tier: str | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Samples fed so far (including compacted-away ones)."""
        return self._dropped + self._n

    @property
    def buffered_samples(self) -> int:
        """Samples currently held in memory (bounded by compaction)."""
        return self._n

    @property
    def n_windows(self) -> int:
        """Windows emitted so far (before finalize: completed ones only)."""
        return len(self._emissions)

    @property
    def emissions(self) -> tuple[WindowEmission, ...]:
        """Every window emitted so far, in window order."""
        return tuple(self._emissions)

    @property
    def finalized(self) -> bool:
        """True once :meth:`finalize` has produced the result."""
        return self._result is not None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def feed(self, times, values, corrected=None) -> list[WindowEmission]:
        """Append RR samples and emit every window they completed.

        ``times``/``values`` are scalars (one beat) or equal-length 1-D
        chunks: beat instants in seconds and the RR intervals they end.
        ``corrected`` optionally marks interpolated beats (bool or 0/1
        mask, same length) — it feeds the per-window quality flags and
        defaults to "no beats corrected".  Times must continue strictly
        increasing across the whole session.  Returns the (possibly
        empty) list of windows this chunk completed, in window order.
        Hub-owned sessions defer: the completed windows join the hub's
        pending set and this returns ``[]`` — the emissions come back
        from :meth:`StreamHub.flush`.
        """
        if self._hub is not None:
            # Before ingestion: a closed hub must reject the feed while
            # the samples are still the caller's.  Raising after
            # _ingest would consume window discovery (advancing
            # _next_start) and then drop the windows on the enqueue
            # check — finalize would silently miss those rows.
            self._hub._check_open()
        pending = self._ingest(times, values, corrected)
        if self._hub is not None:
            self._hub._enqueue(self, pending)
            self._deferred += len(pending)
            if self._deferred == 0:
                # Nothing pending references the buffer (this feed
                # completed no window, nor did earlier ones) — a sparse
                # subject must not grow without bound while its denser
                # hub siblings do all the flushing.
                self._compact()
            return []
        emissions = self._emit(pending)
        self._compact()
        return emissions

    def _ingest(
        self, times, values, corrected=None
    ) -> list[tuple[float, tuple[int, int]]]:
        """Validate and append a chunk; return the windows it completed.

        The returned pending entries are ``(start, (lo, hi))`` with
        buffer-relative sample spans — valid until the next
        :meth:`_compact` (which only runs once they are analysed).
        """
        if self._result is not None:
            raise SignalError("session is finalized; open a new stream")
        t_new = np.atleast_1d(np.asarray(times, dtype=np.float64))
        x_new = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if t_new.ndim != 1 or x_new.ndim != 1:
            raise SignalError("feed expects scalars or 1-D chunks")
        if t_new.size != x_new.size:
            raise SignalError(
                f"times and values must match, got {t_new.size} "
                f"and {x_new.size}"
            )
        if t_new.size == 0:
            return []
        if not (np.all(np.isfinite(t_new)) and np.all(np.isfinite(x_new))):
            raise SignalError("fed samples contain non-finite values")
        if t_new.size > 1 and np.any(np.diff(t_new) <= 0):
            raise SignalError("times must be strictly increasing")
        if self._n and t_new[0] <= self._times[self._n - 1]:
            raise SignalError(
                f"times must be strictly increasing: got {t_new[0]} after "
                f"{self._times[self._n - 1]}"
            )
        if corrected is None:
            c_new = np.zeros(t_new.size)
        else:
            c_new = np.atleast_1d(
                np.asarray(corrected, dtype=np.float64)
            )
            if c_new.shape != t_new.shape:
                raise SignalError(
                    f"corrected mask must match times, got {c_new.size} "
                    f"and {t_new.size}"
                )
        self._append(t_new, x_new, c_new)
        if self._next_start is None:
            self._next_start = float(self._times[0])
        return self._drain()

    def feed_record(self, rr: RRSeries) -> list[WindowEmission]:
        """Feed a whole :class:`RRSeries` chunk (``times``/``intervals``).

        The series' ``corrected`` mask, when present, rides along into
        the per-window quality flags.
        """
        if not isinstance(rr, RRSeries):
            raise SignalError("feed_record expects an RRSeries")
        return self.feed(rr.times, rr.intervals, rr.corrected)

    def _append(
        self, t_new: np.ndarray, x_new: np.ndarray, c_new: np.ndarray
    ) -> None:
        needed = self._n + t_new.size
        if needed > self._times.size:
            capacity = max(self._times.size * 2, needed)
            for name in ("_times", "_values", "_corrected"):
                grown = np.empty(capacity)
                grown[: self._n] = getattr(self, name)[: self._n]
                setattr(self, name, grown)
        self._times[self._n : needed] = t_new
        self._values[self._n : needed] = x_new
        self._corrected[self._n : needed] = c_new
        self._n = needed

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _drain(self) -> list[tuple[float, tuple[int, int]]]:
        """Collect every window whose right edge the data has now passed.

        Emission requires a sample *strictly beyond* ``start + window``:
        a sample exactly on the edge closes the window's content but
        leaves open whether it is the recording's breaking final window
        (in which case no later windows exist) — that call is
        :meth:`finalize`'s, which knows where the recording ends.

        All windows one feed completes are analysed in **one** batched
        :func:`analyze_spans_quality` call (a large chunk can complete
        dozens) — or, for hub-owned sessions, in the hub's shared
        cross-session batch — keeping the streaming path on the dense
        kernel; per-window results are batch-composition-independent,
        so this cannot change any emitted spectrum.
        """
        latest = float(self._times[self._n - 1])
        pending: list[tuple[float, tuple[int, int]]] = []
        while latest > self._next_start + self._window_seconds:
            span = self._evaluate_window(self._next_start)
            if span is not None:
                pending.append((self._next_start, span))
            self._next_start += self._step
        return pending

    def _compact(self) -> None:
        """Drop buffered samples no future window can reference.

        Every window still to come — streamed or finalize's tail —
        starts at or after ``_next_start``, and window spans are found
        with ``searchsorted(..., side="left")``, so samples strictly
        before ``_next_start`` can never be sliced again.  They are
        shifted out once :data:`_COMPACT_MIN_DROPPABLE` of them
        accumulate, which bounds the buffer to roughly one window of
        beats plus that slack on an endless stream.  Only called when no
        pending spans reference the buffer (after analysis, never
        between discovery and analysis).
        """
        if self._next_start is None:
            return
        cut = int(
            np.searchsorted(
                self._times[: self._n], self._next_start, side="left"
            )
        )
        if cut < _COMPACT_MIN_DROPPABLE:
            return
        remaining = self._n - cut
        # _next_start always trails the newest sample (see _drain), so
        # at least one sample survives and the monotonicity check in
        # _ingest keeps comparing against the true last-fed time.
        # The shift needs a bounce buffer (source and destination ranges
        # overlap); leasing it from the engine's arena makes steady-state
        # compaction allocation-free.
        with Scratch(self._engine.arena) as ws:
            bounce = ws.take((remaining,))
            for name in ("_times", "_values", "_corrected"):
                buffer = getattr(self, name)
                np.copyto(bounce, buffer[cut : self._n])
                buffer[:remaining] = bounce
        self._n = remaining
        self._dropped += cut

    def _effective_variant(self):
        """``(variant, level)`` this session currently computes at.

        Plain streams and undegraded hub subjects run the base config
        (variant ``None``, level 0); a hub subject the SLO controller
        stepped down runs its ladder level's kernels.  The tail emitted
        by :meth:`finalize` reads this too — a subject pinned at mode M
        must stay bit-identical to a homogeneous mode-M run *including*
        its final partial window.
        """
        if self._hub is None or self._quality_level == 0:
            return None, 0
        entry = self._hub.ladder[self._quality_level]
        return (entry.system, entry.pruning), entry.level

    def _emit(
        self, pending: list[tuple[float, tuple[int, int]]]
    ) -> list[WindowEmission]:
        """Analyse kept windows in one pinned batch and record them."""
        if not pending:
            return []
        t = self._times[: self._n]
        x = self._values[: self._n]
        c = self._corrected[: self._n]
        variant, level = self._effective_variant()
        engine = self._engine
        with execution(engine._context):
            spectra, metrics = analyze_spans_quality(
                self._analyzer,
                t,
                x,
                [span for _, span in pending],
                self._count_ops,
                corrected=c,
                owners=span_owners(
                    engine.welch, engine.config, [variant] * len(pending)
                ),
            )
        return [
            self._record(start, lo, hi, spectrum, window, quality=level)
            for (start, (lo, hi)), spectrum, window in zip(
                pending, spectra, metrics
            )
        ]

    def _evaluate_window(self, start: float) -> tuple[int, int] | None:
        """The window's sample span, or ``None`` when it is dropped.

        Applies :func:`~repro.lomb.welch.iter_windows`' keep rule (at
        least two samples, actual span at least half the nominal
        duration) and :meth:`~repro.lomb.welch.WelchLomb.plan_windows`'
        minimum-beat rule (skipped windows are counted, exactly like
        the batch planner).
        """
        t = self._times[: self._n]
        lo = int(np.searchsorted(t, start, side="left"))
        hi = int(
            np.searchsorted(t, start + self._window_seconds, side="left")
        )
        if hi - lo < 2:
            return None
        if t[hi - 1] - t[lo] < 0.5 * self._window_seconds:
            return None
        if hi - lo < MIN_BEATS_PER_WINDOW:
            self._skipped += 1
            return None
        return lo, hi

    def _record(
        self,
        start: float,
        lo: int,
        hi: int,
        spectrum: LombSpectrum,
        metrics: WindowMetrics,
        quality: int = 0,
    ) -> WindowEmission:
        t = self._times[: self._n]
        center = 0.5 * (float(t[lo]) + float(t[hi - 1]))
        emission = WindowEmission(
            index=len(self._emissions),
            start=float(start),
            center=center,
            spectrum=spectrum,
            quality=int(quality),
            metrics=metrics,
        )
        self._emissions.append(emission)
        return emission

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finalize(self):
        """Close the stream and assemble the whole-recording result.

        Emits the trailing window(s) the end of the recording resolves
        — replicating the batch planner's stopping rule, including the
        final-window break — then assembles every emitted spectrum with
        :func:`~repro.lomb.welch.assemble_result` and applies the same
        clinical post-processing as :meth:`Engine.analyze`.  Idempotent:
        repeated calls return the same :class:`PSAResult`.
        """
        if self._result is not None:
            return self._result
        if self._lost_windows:
            raise SignalError(
                "cannot finalize: completed windows were discarded by "
                "the hub's close(); the result would silently miss "
                "spectrogram rows"
            )
        if self._hub is not None:
            # Deferred windows must be analysed (in the shared batch)
            # before the tail is resolved, or they would be lost.
            self._hub.flush()
        self._check_finalizable()
        if not self._tail_emitted:
            # Emit-once guard: if assembly below fails (or a hub-wide
            # finalize_all fails on a sibling after batching this tail),
            # a retry must not re-analyse, re-record or re-count the
            # same tail.
            self._emit(self._tail_pending())
            self._skipped += self._tail_skips
            self._tail_emitted = True
        return self._assemble()

    def _check_finalizable(self) -> None:
        if self.n_samples < MIN_BEATS_PER_WINDOW:
            raise SignalError(
                f"times must have at least {MIN_BEATS_PER_WINDOW} samples, "
                f"got {self.n_samples}"
            )

    def _tail_pending(self) -> list[tuple[float, tuple[int, int]]]:
        """The trailing window(s) the end of the recording resolves.

        Pure: the MIN_BEATS skips the tail contains are parked in
        ``_tail_skips`` instead of ``_skipped``, and applied by the
        caller exactly once under the emit-once guard — a failed
        finalize retried (or a hub finalize_all that collected this
        tail before failing on a sibling) must not double-count them.
        """
        skipped_before = self._skipped
        end_time = float(self._times[self._n - 1])
        tail: list[tuple[float, tuple[int, int]]] = []
        start = self._next_start
        while start < end_time:
            span = self._evaluate_window(start)
            if span is not None:
                tail.append((start, span))
            if start + self._window_seconds >= end_time:
                break
            start += self._step
        self._tail_skips = self._skipped - skipped_before
        self._skipped = skipped_before
        return tail

    def _assemble(self):
        """Stack every emission once and assemble the final result."""
        emissions = self._emissions
        if not emissions:
            raise SignalError(
                "no analysable windows: recording too short or too sparse"
            )
        with execution(self._engine._context):
            welch_result = assemble_result(
                LombBatch.stack(e.spectrum for e in emissions),
                np.array([e.center for e in emissions]),
                self._skipped,
                self._count_ops,
                metrics=MetricsBatch.stack(e.metrics for e in emissions),
            )
            self._result = self._engine.system._finalize(welch_result)
        # No window can slice the samples any more; a finalized session
        # kept for later reads must not pin them.
        self._dropped += self._n
        self._n = 0
        self._times = self._values = self._corrected = np.empty(0)
        return self._result
