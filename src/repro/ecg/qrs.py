"""QRS detection (Pan-Tompkins style) and RR extraction.

WBSN nodes already run a delineation algorithm whose output feeds the PSA
system (paper Section II); this module provides that stage so the library
can start from a raw ECG trace: bandpass -> derivative -> squaring ->
moving-window integration -> adaptive-threshold peak picking, then a
parabolic refinement of each R peak on the filtered trace.

Two detectors share that machinery:

* :class:`QrsDetector` — whole-record batch detection (the original
  shape: non-causal zero-phase filtering over the full trace, adaptive
  threshold seeded from the global candidate distribution);
* :class:`StreamingQrsDetector` — the incremental form the ingestion
  layer feeds ECG *frames*.  It processes the trace in fixed blocks
  with a margin of context on each side, so the beats it emits are a
  deterministic function of the block grid alone — **any** chunking of
  the same record (sample-by-sample or one shot) finalizes to
  bit-identical beat times.  Its one-shot run *is* the batch reference
  for the streaming pipeline (``detect_record``); it deliberately does
  not reproduce :class:`QrsDetector` bit-for-bit, because zero-phase
  filtering and globally-seeded thresholds are whole-record quantities
  no bounded-latency detector can know.

Both run the same per-detector filter state, built once in
:class:`QrsDetector` rather than per call: the zero-phase filter's
initial conditions and pad length (``sosfiltfilt``'s own, replayed op
for op so every sample is bit-identical to it), the integration kernel
and the refinement half-window.  Peak refinement is one array pass
over all accepted beats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sps

from .._validation import as_1d_float_array, require_positive
from ..errors import SignalError
from ..hrv.rr import RRSeries

__all__ = ["QrsDetector", "QrsResult", "StreamingQrsDetector"]


@dataclass(frozen=True)
class QrsResult:
    """Detected beats.

    Attributes
    ----------
    beat_times:
        R-peak instants in seconds.
    rr:
        The RR series derived from them.
    threshold_trace:
        Final adaptive threshold per detected peak (diagnostic).
    """

    beat_times: np.ndarray
    rr: RRSeries
    threshold_trace: np.ndarray


class QrsDetector:
    """Pan-Tompkins-style QRS detector.

    Parameters
    ----------
    sampling_rate:
        ECG sampling rate in Hz (>= 100 for reliable QRS morphology).
    band:
        Passband (Hz) isolating QRS energy; default (5, 15).
    integration_window:
        Moving-integration window length in seconds.
    refractory:
        Minimum spacing between beats in seconds.
    """

    #: Half-window (seconds) of the parabolic peak refinement.
    _REFINE_HALF_SECONDS = 0.05

    def __init__(
        self,
        sampling_rate: float = 250.0,
        band: tuple[float, float] = (5.0, 15.0),
        integration_window: float = 0.12,
        refractory: float = 0.25,
    ):
        self.fs = require_positive(sampling_rate, "sampling_rate")
        if self.fs < 100.0:
            raise SignalError(
                f"sampling_rate {sampling_rate} too low for QRS detection"
            )
        low, high = band
        if not 0 < low < high < self.fs / 2:
            raise SignalError(f"invalid band {band} for fs={sampling_rate}")
        self.band = (float(low), float(high))
        self.integration_window = require_positive(
            integration_window, "integration_window"
        )
        self.refractory = require_positive(refractory, "refractory")
        nyq = self.fs / 2.0
        self._sos = sps.butter(
            2, [self.band[0] / nyq, self.band[1] / nyq], btype="band", output="sos"
        )
        # What sps.sosfiltfilt would recompute on every call: the steady
        # state initial conditions and the default ("odd") pad length.
        self._zi = sps.sosfilt_zi(self._sos)
        ntaps = 2 * self._sos.shape[0] + 1 - min(
            (self._sos[:, 2] == 0).sum(), (self._sos[:, 5] == 0).sum()
        )
        self._padlen = 3 * int(ntaps)
        window = max(int(self.integration_window * self.fs), 1)
        self._kernel = np.ones(window) / window
        self._refine_half = int(self._REFINE_HALF_SECONDS * self.fs)

    # ------------------------------------------------------------------

    def _zero_phase(self, x: np.ndarray) -> np.ndarray:
        """``sps.sosfiltfilt(self._sos, x)``, bit for bit.

        The same operations in the same order — odd extension, forward
        pass seeded with ``zi * ext[0]``, backward pass over the
        reversed output seeded with ``zi * y[-1]``, trim — with the
        design-time pieces taken from the detector instead of rebuilt.
        """
        edge = self._padlen
        if x.size <= edge:
            raise ValueError(
                "The length of the input vector x must be greater than "
                f"padlen, which is {edge}."
            )
        ext = np.concatenate(
            (
                2 * x[:1] - x[edge:0:-1],
                x,
                2 * x[-1:] - x[-2 : -(edge + 2) : -1],
            )
        )
        y, _ = sps.sosfilt(self._sos, ext, zi=self._zi * ext[:1])
        y, _ = sps.sosfilt(self._sos, y[::-1], zi=self._zi * y[-1:])
        return y[::-1][edge:-edge]

    def _feature_signal(self, ecg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        filtered = self._zero_phase(ecg)
        derivative = np.gradient(filtered) * self.fs
        squared = derivative**2
        integrated = np.convolve(squared, self._kernel, mode="same")
        return filtered, integrated

    def detect(self, times, ecg) -> QrsResult:
        """Detect beats in an ECG trace.

        Parameters
        ----------
        times:
            Sample instants in seconds (uniform grid).
        ecg:
            ECG samples in millivolts.
        """
        t = as_1d_float_array(times, "times", min_length=32)
        x = as_1d_float_array(ecg, "ecg", min_length=32)
        if t.size != x.size:
            raise SignalError(
                f"times and ecg must match, got {t.size} and {x.size}"
            )
        filtered, feature = self._feature_signal(x)

        refractory_samples = int(self.refractory * self.fs)
        candidates, _ = sps.find_peaks(feature, distance=max(refractory_samples, 1))
        if candidates.size < 3:
            raise SignalError("fewer than 3 QRS candidates found")

        # Adaptive threshold: running estimates of signal and noise peaks.
        spki = float(np.percentile(feature[candidates], 75))
        npki = float(np.percentile(feature[candidates], 25))
        beats: list[int] = []
        thresholds: list[float] = []
        for idx in candidates:
            threshold = npki + 0.25 * (spki - npki)
            if feature[idx] >= threshold:
                beats.append(int(idx))
                spki = 0.125 * feature[idx] + 0.875 * spki
            else:
                npki = 0.125 * feature[idx] + 0.875 * npki
            thresholds.append(threshold)
        if len(beats) < 3:
            raise SignalError("fewer than 3 beats passed the adaptive threshold")

        refined = self._refine_peaks(filtered, np.asarray(beats))
        beat_times = t[0] + refined / self.fs
        return QrsResult(
            beat_times=beat_times,
            rr=RRSeries.from_beat_times(beat_times),
            threshold_trace=np.asarray(thresholds),
        )

    def _refine_peaks(self, filtered: np.ndarray, beats: np.ndarray) -> np.ndarray:
        """Sub-sample peak localisation by parabolic interpolation.

        Each beat's peak is the first maximum of ``|filtered|`` within
        ``refine_half`` samples (clipped at the record edges); interior
        peaks then move by the vertex of the parabola through their
        neighbours, at most half a sample.
        """
        half = self._refine_half
        n = filtered.size
        magnitude = np.abs(filtered)
        # |x| >= 0 > -1: the padding never wins an argmax, so each
        # window's first maximum is the clipped window's first maximum.
        padded = np.concatenate(
            (np.full(half, -1.0), magnitude, np.full(half, -1.0))
        )
        windows = sliding_window_view(padded, 2 * half + 1)[beats]
        peaks = beats - half + np.argmax(windows, axis=1)
        interior = (peaks > 0) & (peaks < n - 1)
        at = np.where(interior, peaks, 1)
        y0 = magnitude[at - 1]
        y1 = magnitude[at]
        y2 = magnitude[at + 1]
        denom = y0 - 2 * y1 + y2
        shift = np.zeros(peaks.size)
        np.divide(
            0.5 * (y0 - y2), denom, out=shift, where=np.abs(denom) > 1e-12
        )
        return np.where(interior, peaks + np.clip(shift, -0.5, 0.5), peaks)


class StreamingQrsDetector:
    """Incremental QRS detection over ECG frames, chunking-invariant.

    The trace is partitioned into fixed *blocks* of ``block_seconds``;
    block *b* is analysed the moment ``margin_seconds`` of samples
    beyond its right edge have arrived, over the context window
    ``[b*B - M, (b+1)*B + M)``.  Filtering, peak picking and parabolic
    refinement run on that context exactly as in
    :meth:`QrsDetector._feature_signal` / ``_refine_peaks``; only
    candidates *inside* the block are kept, the adaptive ``SPKI`` /
    ``NPKI`` estimates carry across blocks (seeded from the first block
    that produces candidates), and a cross-block refractory guard
    rejects a candidate closer than ``refractory`` to the previously
    accepted beat.

    Because the block grid is fixed by the detector — never by how the
    caller happens to slice the frames — every chunking of the same
    record produces bit-identical beat times.  :meth:`detect_record` is
    therefore the batch reference the streaming-vs-batch bit-identity
    tests compare against.

    Parameters mirror :class:`QrsDetector`, plus the block geometry.
    ``margin_seconds`` must cover the refractory period, the
    integration window and the refinement half-window, so no interior
    candidate's context is ever truncated mid-record.
    """

    #: Tolerance (in sample periods) for frames to count as continuing
    #: the uniform grid the detector was opened on.
    _GRID_TOLERANCE = 0.25

    def __init__(
        self,
        sampling_rate: float = 250.0,
        band: tuple[float, float] = (5.0, 15.0),
        integration_window: float = 0.12,
        refractory: float = 0.25,
        block_seconds: float = 8.0,
        margin_seconds: float = 1.0,
    ):
        self._batch = QrsDetector(
            sampling_rate=sampling_rate,
            band=band,
            integration_window=integration_window,
            refractory=refractory,
        )
        self.fs = self._batch.fs
        self.band = self._batch.band
        self.integration_window = self._batch.integration_window
        self.refractory = self._batch.refractory
        require_positive(block_seconds, "block_seconds")
        require_positive(margin_seconds, "margin_seconds")
        needed = max(
            self.refractory,
            self.integration_window,
            QrsDetector._REFINE_HALF_SECONDS,
        )
        if margin_seconds < needed:
            raise SignalError(
                f"margin_seconds {margin_seconds} must be >= {needed} "
                "(refractory / integration / refinement context)"
            )
        self.block_seconds = float(block_seconds)
        self.margin_seconds = float(margin_seconds)
        self._block = max(int(self.block_seconds * self.fs), 1)
        self._margin = max(int(self.margin_seconds * self.fs), 1)
        self._refractory_samples = max(int(self.refractory * self.fs), 1)

        self._buffer = np.empty(0, dtype=np.float64)
        self._offset = 0  # absolute sample index of self._buffer[0]
        self._count = 0  # total samples ingested
        self._t0: float | None = None  # instant of sample 0
        self._next_block = 0
        self._spki: float | None = None
        self._npki: float | None = None
        self._last_beat = -(1 << 60)  # absolute index of last accepted beat
        self._n_beats = 0
        self._finalized = False

    @property
    def n_beats(self) -> int:
        """Beats emitted so far."""
        return self._n_beats

    def _clone(self) -> "StreamingQrsDetector":
        return StreamingQrsDetector(
            sampling_rate=self.fs,
            band=self.band,
            integration_window=self.integration_window,
            refractory=self.refractory,
            block_seconds=self.block_seconds,
            margin_seconds=self.margin_seconds,
        )

    # ------------------------------------------------------------------

    def _process_block(self, block: int) -> np.ndarray:
        """Detect beats inside one block; return their instants."""
        lo = block * self._block
        hi = min((block + 1) * self._block, self._count)
        ctx_lo = max(0, lo - self._margin)
        ctx_hi = min(self._count, hi + self._margin)
        context = self._buffer[ctx_lo - self._offset : ctx_hi - self._offset]
        if context.size < 2:
            return np.empty(0, dtype=np.float64)
        filtered, feature = self._batch._feature_signal(context)
        candidates, _ = sps.find_peaks(
            feature, distance=self._refractory_samples
        )
        interior = candidates[
            (candidates >= lo - ctx_lo) & (candidates < hi - ctx_lo)
        ]
        if interior.size == 0:
            return np.empty(0, dtype=np.float64)
        heights = feature[interior]
        if self._spki is None:
            self._spki = float(np.percentile(heights, 75))
            self._npki = float(np.percentile(heights, 25))
        spki, npki, last_beat = self._spki, self._npki, self._last_beat
        accepted: list[int] = []
        for idx, height in zip(interior.tolist(), heights.tolist()):
            threshold = npki + 0.25 * (spki - npki)
            absolute = ctx_lo + idx
            if (
                height >= threshold
                and absolute - last_beat >= self._refractory_samples
            ):
                accepted.append(idx)
                last_beat = absolute
                spki = 0.125 * height + 0.875 * spki
            else:
                npki = 0.125 * height + 0.875 * npki
        self._spki, self._npki, self._last_beat = spki, npki, last_beat
        if not accepted:
            return np.empty(0, dtype=np.float64)
        refined = self._batch._refine_peaks(
            filtered, np.asarray(accepted, dtype=np.int64)
        )
        self._n_beats += refined.size
        return self._t0 + (ctx_lo + refined) / self.fs

    def _drain(self, final: bool) -> np.ndarray:
        beats: list[np.ndarray] = []
        while True:
            block_end = (self._next_block + 1) * self._block
            if final:
                if self._next_block * self._block >= self._count:
                    break
            elif block_end + self._margin > self._count:
                break
            beats.append(self._process_block(self._next_block))
            self._next_block += 1
            # Retire samples the next block's left margin cannot reach.
            keep_from = max(0, self._next_block * self._block - self._margin)
            if keep_from > self._offset:
                self._buffer = self._buffer[keep_from - self._offset :]
                self._offset = keep_from
        if not beats:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(beats)

    def push(self, times, ecg) -> np.ndarray:
        """Ingest one ECG frame; return newly finalized beat instants.

        Frames must continue the uniform sample grid the first frame
        established (``times[k] = t0 + k / fs``) — gaps or resampling
        would silently shift every downstream RR interval — and carry
        finite times and samples.  A rejected frame raises
        :class:`SignalError` and leaves the detector untouched.
        """
        if self._finalized:
            raise SignalError("detector already finalized")
        t = np.asarray(times, dtype=np.float64)
        x = np.asarray(ecg, dtype=np.float64)
        if t.ndim != 1 or x.ndim != 1 or t.size != x.size:
            raise SignalError(
                f"push needs matching 1-D times and ecg, got shapes "
                f"{t.shape} and {x.shape}"
            )
        if t.size == 0:
            return np.empty(0, dtype=np.float64)
        if not np.isfinite(x).all():
            raise SignalError("ECG frame contains non-finite samples")
        if not np.isfinite(t).all():
            raise SignalError("ECG frame contains non-finite sample times")
        t0 = float(t[0]) if self._t0 is None else self._t0
        expected = t0 + (
            self._count + np.arange(t.size, dtype=np.float64)
        ) / self.fs
        if np.max(np.abs(t - expected)) > self._GRID_TOLERANCE / self.fs:
            raise SignalError(
                "ECG frame does not continue the uniform sample grid "
                f"(fs={self.fs} Hz) the stream started on"
            )
        self._t0 = t0
        self._buffer = np.concatenate([self._buffer, x])
        self._count += x.size
        return self._drain(final=False)

    def finalize(self) -> np.ndarray:
        """Process the trailing partial blocks; return the last beats.

        Raises :class:`SignalError` when the whole stream produced
        fewer than 3 beats — the same floor batch detection enforces.
        """
        if self._finalized:
            raise SignalError("detector already finalized")
        self._finalized = True
        if self._count < 32:
            raise SignalError(
                f"ECG stream of {self._count} samples is too short for "
                "QRS detection"
            )
        beats = self._drain(final=True)
        if self._n_beats < 3:
            raise SignalError("fewer than 3 beats detected in ECG stream")
        return beats

    def detect_record(self, times, ecg) -> np.ndarray:
        """One-shot detection over a whole record (fresh state).

        Runs a pristine clone of this detector over the record in a
        single push — the batch reference that any frame-by-frame
        replay of the same record must match bit for bit.
        """
        clone = self._clone()
        head = clone.push(times, ecg)
        tail = clone.finalize()
        return np.concatenate([head, tail])
