"""HRV metrics: the paper's LFP/HFP ratio plus standard time-domain set.

The LFP/HFP ratio is the clinical read-out the whole evaluation hinges
on: "a ratio of LFP over HFP much less than 1 indicates a sinus
arrhythmia condition and is an appropriate quality metric for such an
application" (Section VI).  Time-domain metrics (SDNN, RMSSD, pNN50,
pNN20) are the HRnV-Calc standard set, provided both as whole-recording
functions over an :class:`RRSeries` and as the per-window
:class:`WindowMetrics` record that rides next to each Welch window's
spectrum through every execution layer.

:func:`window_metrics_batch` is deliberately *composition-independent*:
each window is reduced over its own contiguous float64 slice (mean,
``std(ddof=1)``, ``diff``), never through prefix sums shared across
windows, so the same span produces bit-identical metrics whether it is
analysed alone, inside a session batch, or concatenated into a hub's
heterogeneous mega-batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    would.  Each row is summed with the same 1-D ``np.sum`` as
    :func:`lf_hf_ratio`: a whole-matrix ``axis=1`` sum rounds
    differently in the last bit.
    """
    power = np.asarray(spectrogram, dtype=np.float64)
    if power.ndim != 2:
        raise SignalError(
            f"spectrogram must be two-dimensional, got shape {power.shape}"
        )
    ratios = np.empty(power.shape[0])
    if not ratios.size:
        return ratios
    # Row 0 goes through the per-spectrum checks, which test a row's
    # values before the grid's size; later rows only need their values.
    freqs, _ = _unpack(power[0], frequencies)
    finite = np.isfinite(power).all(axis=1)
    df = float(np.median(np.diff(freqs)))
    lf_rows = power[:, LF_BAND.contains(freqs)]
    hf_rows = power[:, HF_BAND.contains(freqs)]
    for i, (lf, hf) in enumerate(zip(lf_rows, hf_rows)):
        if not finite[i]:
            raise SignalError("power contains non-finite values")
        lfp = float(np.sum(lf) * df)
        hfp = float(np.sum(hf) * df)
        if hfp <= 0:
            raise SignalError("HF band power is zero; LF/HF ratio undefined")
        ratios[i] = lfp / hfp
    return ratios


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


def _longest_run(mask: np.ndarray) -> int:
    """Length of the longest run of nonzero entries in ``mask``."""
    nonzero = mask != 0.0
    if not nonzero.any():
        return 0
    padded = np.concatenate(([False], nonzero, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return int(np.max(edges[1::2] - edges[0::2]))


def window_metrics_batch(values, spans, corrected=None):
    """Per-window time-domain metrics over Welch window spans.

    ``values`` are RR intervals in seconds; ``spans`` the same
    ``(lo, hi)`` index pairs the Lomb kernel analyses; ``corrected`` an
    optional 0/1 mask (any real dtype) marking interpolated beats.
    Returns one :class:`WindowMetrics` per span.

    Every reduction runs over the window's own contiguous slice, so the
    result for a span never depends on which other spans share the
    batch — the property the bit-identity guarantee across execution
    paths rests on.
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
    out = []
    for lo, hi in spans:
        rr_ms = rr[lo:hi] * 1000.0
        n = int(rr_ms.size)
        mean_rr = float(np.mean(rr_ms)) if n else 0.0
        sdnn_ms = float(np.std(rr_ms, ddof=1)) if n >= 2 else 0.0
        diffs = np.diff(rr_ms)
        if diffs.size:
            rmssd_ms = float(np.sqrt(np.mean(diffs * diffs)))
            abs_diffs = np.abs(diffs)
            p50 = float(np.count_nonzero(abs_diffs > 50.0)) / diffs.size
            p20 = float(np.count_nonzero(abs_diffs > 20.0)) / diffs.size
        else:
            rmssd_ms, p50, p20 = 0.0, 0.0, 0.0
        if mask is not None and n:
            window_mask = mask[lo:hi]
            fraction = float(np.mean(window_mask))
            run = _longest_run(window_mask)
        else:
            fraction, run = 0.0, 0
        flags = 0
        if n < FEW_BEATS_THRESHOLD:
            flags |= FLAG_FEW_BEATS
        if fraction > HIGH_CORRECTED_FRACTION:
            flags |= FLAG_HIGH_CORRECTED
        if run >= ARTIFACT_RUN_LENGTH:
            flags |= FLAG_ARTIFACT_RUN
        out.append(
            WindowMetrics(
                n_beats=n,
                mean_rr_ms=mean_rr,
                sdnn_ms=sdnn_ms,
                rmssd_ms=rmssd_ms,
                pnn50=p50,
                pnn20=p20,
                corrected_fraction=fraction,
                flags=flags,
            )
        )
    return tuple(out)
