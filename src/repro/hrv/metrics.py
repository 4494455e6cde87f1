"""HRV metrics: the paper's LFP/HFP ratio plus standard time-domain set.

The LFP/HFP ratio is the clinical read-out the whole evaluation hinges
on: "a ratio of LFP over HFP much less than 1 indicates a sinus
arrhythmia condition and is an appropriate quality metric for such an
application" (Section VI).  Time-domain metrics (SDNN, RMSSD, pNN50,
pNN20) are the HRnV-Calc standard set, provided both as whole-recording
functions over an :class:`RRSeries` and as the per-window
:class:`WindowMetrics` record that rides next to each Welch window's
spectrum through every execution layer.

:func:`window_metrics_batch` is deliberately *composition-independent*.
It gathers the windows of each beat count into one C-contiguous
``(rows, n)`` block and reduces along the rows; numpy sums each row of
such a block with the same pairwise summation as the 1-D call on the
window's own slice.  Grouping only decides which rows share a numpy
call, never a row's arithmetic — no prefix sums shared across windows,
no padding — so the same span produces bit-identical metrics whether
it is analysed alone, inside a session batch, or concatenated into a
hub's heterogeneous mega-batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import span_bounds
from ..errors import SignalError
from .bands import HF_BAND, LF_BAND, _unpack, band_power
from .rr import RRSeries

__all__ = [
    "ARTIFACT_RUN_LENGTH",
    "FEW_BEATS_THRESHOLD",
    "FLAG_ARTIFACT_RUN",
    "FLAG_FEW_BEATS",
    "FLAG_HIGH_CORRECTED",
    "HIGH_CORRECTED_FRACTION",
    "WindowMetrics",
    "lf_hf_ratio",
    "pnn20",
    "ratio_error",
    "sdnn",
    "rmssd",
    "pnn50",
    "sdsd",
    "time_domain_summary",
    "window_lf_hf_ratios",
    "window_metrics_batch",
]


def lf_hf_ratio(spectrum, frequencies=None) -> float:
    """LFP / HFP band-power ratio of a periodogram (paper Table I)."""
    lfp = band_power(spectrum, LF_BAND, frequencies=frequencies)
    hfp = band_power(spectrum, HF_BAND, frequencies=frequencies)
    if hfp <= 0:
        raise SignalError("HF band power is zero; LF/HF ratio undefined")
    return lfp / hfp


def window_lf_hf_ratios(spectrogram, frequencies) -> np.ndarray:
    """Per-window LF/HF ratios of a ``(n_windows, n_frequencies)`` spectrogram.

    One pass over a recording's time-frequency distribution: the grid
    is validated, and its bin width and LF/HF masks derived, once for
    all rows.  The result equals ``[lf_hf_ratio(row,
    frequencies=frequencies) for row in spectrogram]`` bit for bit, and
    the first offending row raises the :class:`SignalError` that loop
    would (within a row, non-finite values before a zero HF band).

    The band sums run along the rows of C-contiguous copies of the band
    columns, which numpy sums with the same pairwise summation as the
    1-D ``np.sum`` of :func:`lf_hf_ratio`.  The boolean column selection
    itself is *not* C-contiguous, and summing it along ``axis=1`` would
    round differently in the last bit.
    """
    power = np.asarray(spectrogram, dtype=np.float64)
    if power.ndim != 2:
        raise SignalError(
            f"spectrogram must be two-dimensional, got shape {power.shape}"
        )
    rows = power.shape[0]
    if not rows:
        return np.empty(0)
    # Row 0 goes through the per-spectrum checks, which test a row's
    # values before the grid's size; later rows only need their values.
    freqs, _ = _unpack(power[0], frequencies)
    finite = np.isfinite(power).all(axis=1)
    # Rows from the first non-finite one on are never summed: that row
    # raises, unless a zero HF band raises before it.
    stop = rows if finite.all() else int(np.argmin(finite))
    df = float(np.median(np.diff(freqs)))
    lfp = _band_row_sums(power[:stop], LF_BAND.contains(freqs)) * df
    hfp = _band_row_sums(power[:stop], HF_BAND.contains(freqs)) * df
    if np.any(hfp <= 0):
        raise SignalError("HF band power is zero; LF/HF ratio undefined")
    if stop < rows:
        raise SignalError("power contains non-finite values")
    return lfp / hfp


def _band_row_sums(power: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Each row's sum over the *band* columns, as the 1-D ``np.sum``."""
    return np.ascontiguousarray(power[:, band]).sum(axis=1)


def ratio_error(approximate: float, reference: float) -> float:
    """Relative error of an approximated LF/HF ratio (paper's 4.9 % figure)."""
    if reference == 0:
        raise SignalError("reference ratio is zero")
    return abs(approximate - reference) / abs(reference)


def _intervals_ms(series: RRSeries) -> np.ndarray:
    return series.intervals * 1000.0


def sdnn(series: RRSeries) -> float:
    """Standard deviation of RR intervals, in milliseconds."""
    return float(np.std(_intervals_ms(series), ddof=1))


def rmssd(series: RRSeries) -> float:
    """Root mean square of successive RR differences, in milliseconds."""
    diffs = np.diff(_intervals_ms(series))
    if diffs.size == 0:
        raise SignalError("need at least 2 intervals for RMSSD")
    return float(np.sqrt(np.mean(diffs**2)))


def sdsd(series: RRSeries) -> float:
    """Standard deviation of successive RR differences, in milliseconds."""
    diffs = np.diff(_intervals_ms(series))
    if diffs.size < 2:
        raise SignalError("need at least 3 intervals for SDSD")
    return float(np.std(diffs, ddof=1))


def pnn50(series: RRSeries) -> float:
    """Fraction of successive RR differences exceeding 50 ms."""
    diffs = np.abs(np.diff(_intervals_ms(series)))
    if diffs.size == 0:
        raise SignalError("need at least 2 intervals for pNN50")
    return float(np.count_nonzero(diffs > 50.0)) / diffs.size


def pnn20(series: RRSeries) -> float:
    """Fraction of successive RR differences exceeding 20 ms."""
    diffs = np.abs(np.diff(_intervals_ms(series)))
    if diffs.size == 0:
        raise SignalError("need at least 2 intervals for pNN20")
    return float(np.count_nonzero(diffs > 20.0)) / diffs.size


def time_domain_summary(series: RRSeries) -> dict[str, float]:
    """All time-domain metrics in one dictionary."""
    return {
        "mean_rr_ms": float(np.mean(_intervals_ms(series))),
        "mean_hr_bpm": series.mean_heart_rate,
        "sdnn_ms": sdnn(series),
        "rmssd_ms": rmssd(series),
        "sdsd_ms": sdsd(series),
        "pnn50": pnn50(series),
        "pnn20": pnn20(series),
    }


# ----------------------------------------------------------------------
# Per-window metrics and quality flags
# ----------------------------------------------------------------------

#: Quality-flag bits carried in :attr:`WindowMetrics.flags`.
FLAG_FEW_BEATS = 1  #: the window holds suspiciously few beats
FLAG_HIGH_CORRECTED = 2  #: too large a fraction of beats was interpolated
FLAG_ARTIFACT_RUN = 4  #: a run of consecutive corrected beats

#: Beat count below which a window is flagged ``FLAG_FEW_BEATS`` — well
#: under what any plausible heart rate puts in the default two-minute
#: Welch window, so tripping it means real signal loss, not bradycardia.
FEW_BEATS_THRESHOLD = 64

#: Corrected-beat fraction above which ``FLAG_HIGH_CORRECTED`` trips
#: (the usual "discard windows with >5 % interpolated beats" rule).
HIGH_CORRECTED_FRACTION = 0.05

#: Consecutive corrected beats that count as an artifact *run* — a
#: burst of interpolation (sensor dropout, motion) rather than isolated
#: ectopy, which distorts spectra more than the same fraction spread out.
ARTIFACT_RUN_LENGTH = 3

_FLAG_NAMES = (
    (FLAG_FEW_BEATS, "few_beats"),
    (FLAG_HIGH_CORRECTED, "high_corrected"),
    (FLAG_ARTIFACT_RUN, "artifact_run"),
)


@dataclass(frozen=True)
class WindowMetrics:
    """Time-domain metrics and quality flags for one Welch window.

    Computed at the ``analyze_spans`` choke point from the exact beat
    span the window's spectrum was computed from, and carried next to
    that spectrum on :class:`~repro.engine.WindowEmission` and
    :class:`~repro.core.system.PSAResult` through every transport.
    """

    n_beats: int
    mean_rr_ms: float
    sdnn_ms: float
    rmssd_ms: float
    pnn50: float
    pnn20: float
    corrected_fraction: float
    flags: int

    @property
    def flag_names(self) -> tuple[str, ...]:
        """Human-readable names of the quality flags that tripped."""
        return tuple(
            name for bit, name in _FLAG_NAMES if self.flags & bit
        )

    def to_dict(self) -> dict:
        """Plain-data form (service wire / JSON round trip)."""
        return {
            "n_beats": self.n_beats,
            "mean_rr_ms": self.mean_rr_ms,
            "sdnn_ms": self.sdnn_ms,
            "rmssd_ms": self.rmssd_ms,
            "pnn50": self.pnn50,
            "pnn20": self.pnn20,
            "corrected_fraction": self.corrected_fraction,
            "flags": self.flags,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowMetrics":
        """Rebuild from :meth:`to_dict` output (exact float round trip)."""
        return cls(
            n_beats=int(payload["n_beats"]),
            mean_rr_ms=float(payload["mean_rr_ms"]),
            sdnn_ms=float(payload["sdnn_ms"]),
            rmssd_ms=float(payload["rmssd_ms"]),
            pnn50=float(payload["pnn50"]),
            pnn20=float(payload["pnn20"]),
            corrected_fraction=float(payload["corrected_fraction"]),
            flags=int(payload["flags"]),
        )


def _rows(source: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """C-contiguous ``(len(starts), n)`` block of ``source[s:s + n]`` rows."""
    if starts.size == 1:
        start = int(starts[0])
        return source[None, start : start + n]
    return source[starts[:, None] + np.arange(n)]


def _has_run(nonzero: np.ndarray, length: int) -> np.ndarray:
    """Per row: does ``nonzero`` hold ``length`` consecutive true entries?"""
    width = nonzero.shape[1] - length + 1
    if width <= 0:
        return np.zeros(nonzero.shape[0], dtype=bool)
    run = nonzero[:, :width]
    for shift in range(1, length):
        run = run & nonzero[:, shift : shift + width]
    return run.any(axis=1)


def window_metrics_batch(values, spans, corrected=None):
    """Per-window time-domain metrics over Welch window spans.

    ``values`` are RR intervals in seconds; ``spans`` the same
    ``(lo, hi)`` index pairs the Lomb kernel analyses, each with ``0 <=
    lo <= hi <= len(values)`` (a :class:`SignalError` names the first
    span that is not); ``corrected`` an optional 0/1 mask (any real
    dtype) marking interpolated beats.  Returns one
    :class:`WindowMetrics` per span; zero- and one-beat spans report
    zeros for the statistics they cannot support.

    Spans are reduced in groups of equal beat count, each gathered into
    one C-contiguous ``(rows, n)`` block.  Every statistic replays the
    operation sequence of the 1-D call it stands for (``np.mean`` is a
    row sum divided by ``n``; ``np.std(ddof=1)`` subtracts that mean,
    squares, sums and divides by ``n - 1`` before the square root), so
    each window's result is bit-identical to reducing its own slice
    and never depends on which other spans share the batch — the
    property the bit-identity guarantee across execution paths rests
    on.
    """
    rr = np.ascontiguousarray(values, dtype=np.float64)
    mask = None
    if corrected is not None:
        mask = np.ascontiguousarray(corrected, dtype=np.float64)
        if mask.shape != rr.shape:
            raise SignalError(
                f"corrected mask length {mask.shape} does not match "
                f"intervals {rr.shape}"
            )
    lo, hi = span_bounds(spans, rr.size, allow_empty=True)
    rows = lo.size
    if not rows:
        return ()
    # Groups are runs of equal beat count in sorted order: each group's
    # results land in its sorted columns, and the records go back into
    # span order at the end.
    lengths = hi - lo
    order = np.argsort(lengths, kind="stable")
    n_beats = lengths[order]
    counts = n_beats.tolist()
    bounds = [0]
    bounds += [i for i in range(1, rows) if counts[i] != counts[i - 1]]
    bounds.append(rows)
    stats = np.zeros((6, rows))
    mean_rr, sdnn_ms, rmssd_ms, p50, p20, fraction = stats
    artifact_run = np.zeros(rows, dtype=bool)
    for a, b in zip(bounds[:-1], bounds[1:]):
        n = counts[a]
        if n == 0:
            continue
        starts = lo[order[a:b]]
        rr_ms = _rows(rr, starts, n) * 1000.0
        mean = np.divide(rr_ms.sum(axis=1), n, out=mean_rr[a:b])
        if mask is not None:
            window_mask = _rows(mask, starts, n)
            np.divide(window_mask.sum(axis=1), n, out=fraction[a:b])
            artifact_run[a:b] = _has_run(
                window_mask != 0.0, ARTIFACT_RUN_LENGTH
            )
        if n < 2:
            continue
        centered = rr_ms - mean[:, None]
        np.square(centered, out=centered)
        np.divide(centered.sum(axis=1), n - 1, out=sdnn_ms[a:b])
        diffs = rr_ms[:, 1:] - rr_ms[:, :-1]
        np.divide((diffs * diffs).sum(axis=1), n - 1, out=rmssd_ms[a:b])
        abs_diffs = np.abs(diffs, out=diffs)
        np.divide((abs_diffs > 50.0).sum(axis=1), n - 1, out=p50[a:b])
        np.divide((abs_diffs > 20.0).sum(axis=1), n - 1, out=p20[a:b])
    np.sqrt(stats[1:3], out=stats[1:3])
    flags = (n_beats < FEW_BEATS_THRESHOLD) * FLAG_FEW_BEATS
    flags |= (fraction > HIGH_CORRECTED_FRACTION) * FLAG_HIGH_CORRECTED
    flags |= artifact_run * FLAG_ARTIFACT_RUN
    # tolist() keeps n_beats and flags Python ints and the statistics
    # Python floats, as the wire form and JSON digests expect.
    records = map(WindowMetrics, counts, *stats.tolist(), flags.tolist())
    out = [None] * rows
    for i, record in zip(order.tolist(), records):
        out[i] = record
    return tuple(out)
