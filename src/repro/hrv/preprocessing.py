"""RR-series cleaning: artifact and ectopic-beat handling.

Real delineation output contains missed/false detections and ectopic
beats whose RR excursions would leak broadband power into the LF/HF
bands.  The standard remedy — used before any spectral HRV analysis —
is local-median filtering of implausible intervals.  The synthetic
cohort can inject ectopics so this path is exercised end to end.

Two shapes of the same rule live here:

* :func:`filter_artifacts` — whole-record batch cleaning;
* :class:`StreamingPreprocessor` — the incremental form the ingestion
  layer (:mod:`repro.ingest`) runs between a beat source and
  ``StreamingSession.feed``.  It resolves each interval the moment its
  centred median window is complete (``half`` beats of lookahead) and
  is **provably equal** to the batch path: both flag and replace with
  the centred median of the *original* intervals under the same
  reflective padding, so a record pushed through in arbitrary chunk
  sizes yields bit-identical cleaned values and corrected masks.

Both take every median they need in one ``np.median`` call over the
rows of a window matrix: the batch path views the padded intervals
through a sliding window, the stream gathers the rows of the positions
it resolves.  For the odd windows the rule allows, each row's median is
its middle order statistic, exactly what ``np.median`` returns for that
window alone (NaN when the window holds one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .._validation import require_in_range, require_positive
from ..errors import SignalError
from .rr import RRSeries

__all__ = [
    "ArtifactReport",
    "StreamingPreprocessor",
    "detect_ectopic_mask",
    "filter_artifacts",
]


@dataclass(frozen=True)
class ArtifactReport:
    """Result of artifact filtering.

    Attributes
    ----------
    series:
        The cleaned series.
    corrected_indices:
        Indices (into the *original* interval array) that were replaced.
    fraction_corrected:
        ``len(corrected_indices) / n_beats`` of the original series.
    """

    series: RRSeries
    corrected_indices: np.ndarray
    fraction_corrected: float


def _flag_ectopics(
    rr: np.ndarray, window: int, tolerance: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(flagged, medians)``: the ectopic mask and the local medians.

    Row ``i`` of the sliding window view over the reflect-padded series
    is the window centred on interval ``i``.
    """
    if window < 3 or window % 2 == 0:
        raise SignalError(f"window must be an odd integer >= 3, got {window}")
    require_in_range(tolerance, 0.01, 1.0, "tolerance")
    if rr.size < window:
        raise SignalError(
            f"series of {rr.size} beats shorter than window {window}"
        )
    half = window // 2
    padded = np.concatenate([rr[half:0:-1], rr, rr[-2 : -half - 2 : -1]])
    medians = np.median(sliding_window_view(padded, window), axis=1)
    deviation = np.abs(rr - medians) / medians
    return deviation > tolerance, medians


def detect_ectopic_mask(
    intervals: np.ndarray, window: int = 11, tolerance: float = 0.2
) -> np.ndarray:
    """Boolean mask of intervals deviating > *tolerance* from local median.

    A centred running median of *window* beats estimates the local normal
    interval; beats outside ``(1 +/- tolerance)`` of it are flagged —
    the classic ectopic/artifact rule for tachograms.
    """
    rr = np.asarray(intervals, dtype=np.float64)
    return _flag_ectopics(rr, window, tolerance)[0]


def filter_artifacts(
    series: RRSeries,
    window: int = 11,
    tolerance: float = 0.2,
    max_fraction: float = 0.3,
) -> ArtifactReport:
    """Replace ectopic/artifact intervals with the local median value.

    Replacement (rather than deletion) keeps the beat count and the time
    axis intact, which the fixed-window Welch-Lomb pipeline prefers.
    Raises :class:`SignalError` when more than *max_fraction* of the
    beats are flagged — at that point the recording is unusable rather
    than merely noisy.
    """
    require_positive(max_fraction, "max_fraction")
    flagged, medians = _flag_ectopics(series.intervals, window, tolerance)
    fraction = float(np.count_nonzero(flagged)) / series.n_beats
    if fraction > max_fraction:
        raise SignalError(
            f"{fraction:.0%} of beats flagged as artifacts "
            f"(limit {max_fraction:.0%}); recording rejected"
        )
    if not np.any(flagged):
        return ArtifactReport(
            series=series.with_corrected(flagged),
            corrected_indices=np.array([], dtype=np.int64),
            fraction_corrected=0.0,
        )
    # The replacement is the detection median: both are taken over the
    # original intervals, before any replacement lands.
    cleaned = np.where(flagged, medians, series.intervals)
    return ArtifactReport(
        series=RRSeries(
            times=series.times, intervals=cleaned, corrected=flagged
        ),
        corrected_indices=np.flatnonzero(flagged),
        fraction_corrected=fraction,
    )


class StreamingPreprocessor:
    """Incremental ectopic rejection + artifact interpolation.

    Feed ``(times, intervals)`` chunks with :meth:`push`; each call
    returns the ``(times, cleaned, corrected)`` arrays for every
    interval whose centred median window became complete — interval
    ``i`` resolves once interval ``i + window//2`` has been ingested.
    :meth:`finalize` resolves the final ``window//2`` intervals using
    the same end-reflection the batch path pads with, and enforces the
    batch path's global rules (minimum length, flagged-fraction cap).

    Equality with :func:`filter_artifacts` is structural: the batch
    replacement median is computed over the *pre-replacement* intervals,
    so the detection median and the replacement value coincide — the
    centred median of the original values over the same reflected
    windows, which is exactly what this class computes.  The only
    behavioural divergence is failure timing: the batch path rejects an
    unusable recording before emitting anything, while the stream has
    necessarily already emitted cleaned beats when :meth:`finalize`
    discovers the total flagged fraction exceeded ``max_fraction`` and
    raises.
    """

    def __init__(
        self,
        window: int = 11,
        tolerance: float = 0.2,
        max_fraction: float = 0.3,
    ):
        if window < 3 or window % 2 == 0:
            raise SignalError(
                f"window must be an odd integer >= 3, got {window}"
            )
        require_in_range(tolerance, 0.01, 1.0, "tolerance")
        require_positive(max_fraction, "max_fraction")
        self._window = int(window)
        self._half = self._window // 2
        self._tolerance = float(tolerance)
        self._max_fraction = float(max_fraction)
        self._rr = np.empty(0, dtype=np.float64)
        self._times = np.empty(0, dtype=np.float64)
        self._offset = 0  # absolute index of self._rr[0]
        self._t_offset = 0  # absolute index of self._times[0]
        self._next = 0  # next absolute position to resolve
        self._count = 0  # total intervals ingested
        self._n_flagged = 0
        self._finalized = False

    @property
    def n_ingested(self) -> int:
        """Total intervals pushed so far."""
        return self._count

    @property
    def n_flagged(self) -> int:
        """Intervals flagged (and replaced) among the resolved ones."""
        return self._n_flagged

    def _resolve(self, last: int):
        """Resolve positions ``self._next .. last`` (absolute, inclusive)."""
        first = self._next
        last = min(last, self._count - 1)
        if last < first:
            return (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=bool),
            )
        # Row k holds the absolute indices of position first + k's
        # window, reflected as the batch path pads: ``j < 0 -> -j`` at
        # the start, ``j >= n -> 2n - 2 - j`` at the end (only once the
        # record length *n* is known).  A gather, not a sliding window
        # view: the view's set-up would cost more than the few-beat
        # pushes of a live stream.
        idx = np.abs(
            np.arange(first, last + 1)[:, None]
            + np.arange(-self._half, self._half + 1)
        )
        if self._finalized:
            n = self._count
            idx = np.where(idx >= n, 2 * n - 2 - idx, idx)
        medians = np.median(self._rr[idx - self._offset], axis=1)
        raw = self._rr[first - self._offset : last + 1 - self._offset]
        flagged = np.abs(raw - medians) / medians > self._tolerance
        times = self._times[first - self._t_offset : last + 1 - self._t_offset]
        self._n_flagged += int(np.count_nonzero(flagged))
        self._next = last + 1
        # Drop context the next resolutions can no longer reach: a
        # position needs originals back to ``i - half`` only.
        keep_from = max(0, self._next - self._half)
        if keep_from > self._offset:
            self._rr = self._rr[keep_from - self._offset :]
            self._offset = keep_from
        self._times = self._times[self._next - self._t_offset :]
        self._t_offset = self._next
        return times.copy(), np.where(flagged, medians, raw), flagged

    def push(self, times, intervals):
        """Ingest one chunk; return the newly resolved cleaned beats.

        Returns ``(times, cleaned, corrected)`` arrays (possibly empty
        while the median window is still filling).  Times and intervals
        must be finite and intervals positive — the domain
        :class:`~repro.hrv.rr.RRSeries` enforces on the batch path; a
        rejected chunk raises :class:`SignalError` and changes nothing.
        """
        if self._finalized:
            raise SignalError("preprocessor already finalized")
        t = np.asarray(times, dtype=np.float64)
        rr = np.asarray(intervals, dtype=np.float64)
        if t.ndim != 1 or rr.ndim != 1 or t.size != rr.size:
            raise SignalError(
                "push needs matching 1-D times and intervals, got shapes "
                f"{t.shape} and {rr.shape}"
            )
        # NaN fails every comparison, so the extremes catch it too.
        if rr.size and not (
            np.isfinite(t).all() and 0.0 < rr.min() and rr.max() < np.inf
        ):
            raise SignalError(
                "pushed beats need finite times and finite, positive RR "
                "intervals"
            )
        self._times = np.concatenate([self._times, t])
        self._rr = np.concatenate([self._rr, rr])
        self._count += rr.size
        return self._resolve(self._count - self._half - 1)

    def finalize(self):
        """Resolve the tail; enforce the batch path's global rules.

        Returns the final ``(times, cleaned, corrected)`` arrays.
        Raises :class:`SignalError` when the record was shorter than
        the median window or when the total flagged fraction exceeds
        ``max_fraction`` — the same conditions the batch path rejects.
        """
        if self._finalized:
            raise SignalError("preprocessor already finalized")
        if self._count < self._window:
            raise SignalError(
                f"series of {self._count} beats shorter than window "
                f"{self._window}"
            )
        self._finalized = True
        out = self._resolve(self._count - 1)
        fraction = self._n_flagged / self._count
        if fraction > self._max_fraction:
            raise SignalError(
                f"{fraction:.0%} of beats flagged as artifacts "
                f"(limit {self._max_fraction:.0%}); recording rejected"
            )
        return out
