"""Welch-Lomb time-frequency analysis (paper Section II.A).

A sliding window (2 minutes with 50 % overlap in the paper) is moved over
the RR-interval series; each window is analysed with Fast-Lomb, and the
per-window periodograms are both kept (the time-frequency distribution
used for hourly monitoring, Section VI.A) and averaged (the Welch
estimate).  The paper's de-normalising factor ``2 sigma^2 / N`` is the
``scaling="denormalized"`` option of :class:`~repro.lomb.fast.FastLomb`,
which lets windows with different variances average consistently.

Execution: by default :meth:`WelchLomb.analyze_windows` lays out the
recording's windows as ``(lo, hi)`` spans and hands them, with the
recording arrays, to :func:`analyze_spans_quality` — the one choke point
every execution mode (whole recordings, streaming sessions, hub
flushes, fleet tasks) shares — which checks the spans once and drives
:meth:`FastLomb.periodogram_spans`, the kernel's one batch entry: dense
``(n_windows, N)`` array operations with no per-window Python loop.
``analyze_windows(batched=False)`` keeps the original sequential loop,
which serves as the equivalence oracle (the batched path produces the
same spectra and operation counts window-for-window).  Execution
*policy* — provider, chunk size, worker processes — lives on the engine
facade (:mod:`repro.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import as_1d_float_array, span_bounds
from ..errors import ConfigurationError, SignalError
from ..ffts.opcount import OpCounts
from ..hrv.metrics import MetricsBatch, window_metrics_batch
from ..perf.profiler import span as _profile_span
from .fast import FastLomb, LombBatch, LombSpectrum

__all__ = [
    "MIN_BEATS_PER_WINDOW",
    "WelchLomb",
    "WelchLombResult",
    "RecordingWindows",
    "analyze_spans_quality",
    "assemble_result",
    "iter_windows",
]

#: Fewest beats a window may contain and still be analysed.
MIN_BEATS_PER_WINDOW = 16


def assemble_result(
    spectra: LombBatch,
    window_times: np.ndarray,
    skipped: int,
    count_ops: bool = False,
    metrics: MetricsBatch | None = None,
) -> WelchLombResult:
    """Assemble a recording's window batch into a :class:`WelchLombResult`.

    Shared back half of :meth:`WelchLomb.analyze`; the fleet engine
    feeds it the concatenated batches of all shards of one recording,
    which makes the sharded result identical to the single-process one
    by construction.

    All windows are interpolated onto the frequency grid of the
    longest-duration window so the spectrogram is rectangular even when
    beat counts differ per window; rows already on a grid of the
    reference length are copied with one array assignment.

    *metrics*, when given, is the :class:`~repro.hrv.metrics.MetricsBatch`
    aligned with *spectra* (one row per kept window, in the same order)
    and lands on the result's ``window_metrics``.
    """
    metrics = MetricsBatch.stack() if metrics is None else metrics
    if len(metrics) and len(metrics) != len(spectra):
        raise SignalError(
            f"{len(metrics)} window metrics for {len(spectra)} spectra"
        )
    if not len(spectra):
        raise SignalError(
            "no analysable windows: recording too short or too sparse"
        )
    with _profile_span("assemble"):
        nout = spectra.nout
        reference = int(np.argmax(nout))
        width = int(nout[reference])
        grid = spectra.df[reference] * np.arange(1, width + 1)
        rows = np.empty((len(spectra), width))
        full = nout == width
        rows[full] = spectra.power[full, :width]
        # The other rows' grids, one matrix per grid length.
        for n in np.unique(nout[~full]).tolist():
            index = np.flatnonzero(nout == n)
            grids = spectra.df[index, None] * np.arange(1, n + 1)
            for i, xp in zip(index.tolist(), grids):
                rows[i] = np.interp(
                    grid, xp, spectra.power[i, :n], left=0.0, right=0.0
                )
        counts = None
        if count_ops:
            counts = OpCounts(*spectra.counts.sum(axis=0).tolist())
        return WelchLombResult(
            frequencies=grid,
            spectrogram=rows,
            averaged=rows.mean(axis=0),
            window_times=np.asarray(window_times),
            window_spectra=spectra,
            counts=counts,
            skipped_windows=skipped,
            window_metrics=metrics,
        )


def iter_windows(
    times: np.ndarray,
    window_seconds: float,
    overlap: float,
) -> list[tuple[int, int]]:
    """Index ranges ``[start, stop)`` of the sliding analysis windows.

    Windows are laid out on the time axis every
    ``window_seconds * (1 - overlap)`` seconds starting at ``times[0]``;
    a trailing partial window is emitted only if it spans at least half
    the nominal duration.
    """
    t = as_1d_float_array(times, "times", min_length=2)
    if window_seconds <= 0:
        raise ConfigurationError(
            f"window_seconds must be positive, got {window_seconds}"
        )
    if not 0.0 <= overlap < 1.0:
        raise ConfigurationError(f"overlap must be in [0, 1), got {overlap}")
    step = window_seconds * (1.0 - overlap)
    start_times: list[float] = []
    start_time = float(t[0])
    end_time = float(t[-1])
    while start_time < end_time:
        start_times.append(start_time)
        if start_time + window_seconds >= end_time:
            break
        start_time += step
    if not start_times:
        return []
    # One vectorised bisection for all window edges instead of two
    # searchsorted calls per window.
    start_arr = np.asarray(start_times)
    starts = np.searchsorted(t, start_arr, side="left")
    stops = np.searchsorted(t, start_arr + window_seconds, side="left")
    actual_span = np.zeros(starts.size)
    nonempty = stops > starts
    actual_span[nonempty] = t[stops[nonempty] - 1] - t[starts[nonempty]]
    keep = (stops - starts >= 2) & (actual_span >= 0.5 * window_seconds)
    return list(zip(starts[keep].tolist(), stops[keep].tolist()))


def analyze_spans_quality(
    analyzer: FastLomb,
    times: np.ndarray,
    values: np.ndarray,
    spans,
    count_ops: bool = False,
    corrected: np.ndarray | None = None,
    owners=None,
) -> tuple[LombBatch, MetricsBatch]:
    """Batch-analyse window spans of one recording, with their metrics.

    The one choke point of the batched execution engine: the Welch
    driver (whole recordings), streaming sessions, hub batches, fleet
    workers and the gateway all call it, so every execution mode takes
    the identical pipeline —
    :meth:`~repro.lomb.fast.FastLomb.periodogram_spans` for the
    spectra, then per-window time-domain metrics from the *same* spans
    the Lomb kernel analysed, so spectra and metrics can never disagree
    about which beats a window held: two column batches, one row per
    span.  ``corrected`` is the optional 0/1 interpolated-beat mask
    aligned with ``values``.

    ``owners`` optionally names each span's FFT owner — the
    :class:`FastLomb` of its quality level — so one call analyses a
    batch that mixes levels: ``analyzer`` runs every stage but the FFT
    once over all spans, each owner runs the FFT over its own spans,
    and every span's result equals a call on its owner alone, byte for
    byte.  ``None`` runs every span on ``analyzer``.

    Spans and sample arrays arrive from the wire as well as from the
    planners.  ``times`` and ``values`` must be 1-D and of equal
    length, and each span an integer pair with ``0 <= lo < hi <=
    len(values)``; the first violation raises a :class:`SignalError`
    before any kernel work.  That is the call's one span check: the
    kernel and the metrics take the bounds it returned, and the kernel
    refuses the first span whose samples the sequential oracle would.
    """
    if np.ndim(times) != 1 or np.shape(times) != np.shape(values):
        raise SignalError(
            "times and values must be 1-D arrays of equal length, got "
            f"shapes {np.shape(times)} and {np.shape(values)}"
        )
    bounds = span_bounds(spans, len(values))
    spectra = analyzer.periodogram_spans(
        times, values, bounds, count_ops, owners=owners
    )
    with _profile_span("metrics"):
        metrics = window_metrics_batch(values, bounds, corrected=corrected)
    return spectra, metrics


@dataclass(frozen=True)
class RecordingWindows:
    """Validated window layout of one recording — the shardable plan.

    Produced by :meth:`WelchLomb.plan_windows`; the fleet engine shards
    ``spans`` into contiguous ranges, analyses each range with
    :func:`analyze_spans_quality` (possibly in another process) and
    reassembles the spectra with :func:`assemble_result`.

    Attributes
    ----------
    times, values:
        The validated recording arrays.
    spans:
        Kept ``[start, stop)`` sample-index ranges, one per analysable
        window, in time order.
    centers:
        Centre time (seconds) of every kept window.
    skipped:
        Windows rejected for holding fewer than
        :data:`MIN_BEATS_PER_WINDOW` beats.
    corrected:
        Optional float64 0/1 mask of interpolated beats, aligned with
        ``values`` (float so it rides the same shared-memory and socket
        array paths the recording arrays do).
    """

    times: np.ndarray
    values: np.ndarray
    spans: tuple[tuple[int, int], ...]
    centers: np.ndarray
    skipped: int
    corrected: np.ndarray | None = None

    @property
    def n_windows(self) -> int:
        return len(self.spans)


@dataclass(frozen=True)
class WelchLombResult:
    """Output of a Welch-Lomb run.

    Attributes
    ----------
    frequencies:
        Common frequency grid (Hz) shared by all windows.
    spectrogram:
        ``(n_windows, n_frequencies)`` per-window periodograms — the
        time-frequency distribution.
    averaged:
        Welch average across windows.
    window_times:
        Centre time (seconds) of every analysed window.
    window_spectra:
        The windows' :class:`~repro.lomb.fast.LombBatch` (a row is a
        :class:`LombSpectrum`).
    counts:
        Total executed operation counts (``None`` unless requested).
    skipped_windows:
        Number of windows rejected for having too few beats.
    window_metrics:
        The windows' :class:`~repro.hrv.metrics.MetricsBatch` (empty
        when the run did not compute them).
    """

    frequencies: np.ndarray
    spectrogram: np.ndarray
    averaged: np.ndarray
    window_times: np.ndarray
    window_spectra: LombBatch
    counts: OpCounts | None = None
    skipped_windows: int = 0
    window_metrics: MetricsBatch = field(default_factory=MetricsBatch.stack)

    @property
    def n_windows(self) -> int:
        return int(self.spectrogram.shape[0])

    def averaged_spectrum(self) -> LombSpectrum:
        """The Welch average packaged as a :class:`LombSpectrum`."""
        spectra = self.window_spectra
        # Actual recording span the analysed windows cover: window centres
        # are exact midpoints, so centre +/- duration/2 recovers the first
        # window's start and the last window's stop.  Summing per-window
        # durations would double-count overlapped stretches (50 % overlap
        # would report nearly twice the recording length).
        start = self.window_times[0] - 0.5 * spectra.duration[0]
        stop = self.window_times[-1] + 0.5 * spectra.duration[-1]
        return LombSpectrum(
            frequencies=self.frequencies,
            power=self.averaged,
            mean=float(np.mean(spectra.mean)),
            variance=float(np.mean(spectra.variance)),
            n_samples=int(spectra.n_samples.sum()),
            duration=float(stop - start),
            counts=self.counts,
        )


class WelchLomb:
    """Sliding-window Welch-Lomb analyser.

    Parameters
    ----------
    analyzer:
        The per-window :class:`FastLomb` engine (its backend decides
        whether this is the conventional or the proposed system).
    window_seconds:
        Nominal window duration; the paper uses 120 s.
    overlap:
        Fractional window overlap; the paper uses 0.5.
    """

    def __init__(
        self,
        analyzer: FastLomb | None = None,
        window_seconds: float = 120.0,
        overlap: float = 0.5,
    ):
        if analyzer is None:
            analyzer = FastLomb(scaling="denormalized")
        self.analyzer = analyzer
        if window_seconds <= 0:
            raise ConfigurationError(
                f"window_seconds must be positive, got {window_seconds}"
            )
        if not 0.0 <= overlap < 1.0:
            raise ConfigurationError(f"overlap must be in [0, 1), got {overlap}")
        self.window_seconds = float(window_seconds)
        self.overlap = float(overlap)

    def plan_windows(self, times, values, corrected=None) -> RecordingWindows:
        """Validate a recording and lay out its analysable windows.

        This is the shared front half of :meth:`analyze`; the fleet
        engine calls it directly to shard the resulting spans across
        worker processes.  ``corrected``, when given, is the
        interpolated-beat mask aligned with ``values`` (any real or
        boolean dtype; stored as float64 0/1 so it travels the same
        array transports the recording does).
        """
        t = as_1d_float_array(times, "times", min_length=MIN_BEATS_PER_WINDOW)
        x = as_1d_float_array(values, "values", min_length=MIN_BEATS_PER_WINDOW)
        if t.size != x.size:
            raise SignalError(
                f"times and values must match, got {t.size} and {x.size}"
            )
        if np.any(np.diff(t) <= 0):
            raise SignalError("times must be strictly increasing")
        mask = None
        if corrected is not None:
            mask = np.ascontiguousarray(corrected, dtype=np.float64)
            if mask.shape != x.shape:
                raise SignalError(
                    f"corrected mask length {mask.size} does not match "
                    f"values {x.size}"
                )
        spans = iter_windows(t, self.window_seconds, self.overlap)
        kept: list[tuple[int, int]] = []
        skipped = 0
        for start, stop in spans:
            if stop - start < MIN_BEATS_PER_WINDOW:
                skipped += 1
            else:
                kept.append((start, stop))
        if kept:
            starts = np.array([span[0] for span in kept])
            stops = np.array([span[1] for span in kept])
            centers = 0.5 * (t[starts] + t[stops - 1])
        else:
            centers = np.empty(0)
        return RecordingWindows(
            times=t,
            values=x,
            spans=tuple(kept),
            centers=centers,
            skipped=skipped,
            corrected=mask,
        )

    def analyze(
        self, times, values, count_ops: bool = False
    ) -> WelchLombResult:
        """Run the sliding-window analysis over a full recording.

        The batched path of :meth:`analyze_windows`, kept as the
        historical spelling; :meth:`analyze_windows` also reaches the
        sequential oracle.
        """
        return self.analyze_windows(times, values, count_ops=count_ops)

    def analyze_windows(
        self,
        times,
        values,
        count_ops: bool = False,
        batched: bool = True,
        corrected=None,
    ) -> WelchLombResult:
        """Run the sliding-window analysis over a full recording.

        All windows are interpolated onto the frequency grid of the
        longest-duration window so the spectrogram is rectangular even
        when beat counts differ per window.

        ``batched`` (default) drives all windows through
        :func:`analyze_spans_quality`; ``batched=False`` runs the
        original per-window loop.  Both paths produce the same spectra
        and operation counts.  Per-window time-domain metrics are
        always computed over the kept spans; ``corrected`` threads the
        interpolated-beat mask into their quality flags.
        """
        plan = self.plan_windows(times, values, corrected=corrected)
        if batched:
            spectra, metrics = analyze_spans_quality(
                self.analyzer,
                plan.times,
                plan.values,
                plan.spans,
                count_ops,
                corrected=plan.corrected,
            )
        else:
            spectra = LombBatch.stack(
                self.analyzer.periodogram(
                    plan.times[lo:hi], plan.values[lo:hi], count_ops=count_ops
                )
                for lo, hi in plan.spans
            )
            with _profile_span("metrics"):
                metrics = window_metrics_batch(
                    plan.values, plan.spans, corrected=plan.corrected
                )
        return assemble_result(
            spectra, plan.centers, plan.skipped, count_ops, metrics=metrics
        )
