"""Sinus-arrhythmia detection from HRV spectra (paper Section VI).

The paper's test case: "a ratio of LFP over HFP much less than 1
indicates a sinus arrhythmia condition".  The detector thresholds the
LF/HF ratio of a periodogram — or the per-window ratios of a Welch-Lomb
time-frequency distribution — and reports the decision together with the
evidence, so experiments can check that pruning never flips a diagnosis
(the paper's headline robustness claim).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import require_positive
from ..errors import SignalError
from .metrics import lf_hf_ratio, window_lf_hf_ratios

__all__ = ["DetectionResult", "SinusArrhythmiaDetector"]


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of a sinus-arrhythmia screening.

    Attributes
    ----------
    is_arrhythmia:
        Decision: LF/HF ratio below the threshold.
    ratio:
        The LF/HF ratio the decision was based on (mean ratio for
        multi-window screenings).
    threshold:
        Decision threshold used.
    window_ratios:
        Per-window ratios when a time-frequency distribution was
        screened; length-1 array for single spectra.
    """

    is_arrhythmia: bool
    ratio: float
    threshold: float
    window_ratios: np.ndarray

    @property
    def margin(self) -> float:
        """Signed distance from the threshold (negative = arrhythmia side)."""
        return self.ratio - self.threshold


class SinusArrhythmiaDetector:
    """LF/HF-ratio threshold detector.

    Parameters
    ----------
    threshold:
        Decision boundary on the LF/HF ratio.  The paper's criterion is
        "much less than 1"; 1.0 is the conventional default.
    """

    def __init__(self, threshold: float = 1.0):
        self.threshold = require_positive(threshold, "threshold")

    def classify_spectrum(self, spectrum, frequencies=None) -> DetectionResult:
        """Screen a single periodogram."""
        ratio = lf_hf_ratio(spectrum, frequencies=frequencies)
        return DetectionResult(
            is_arrhythmia=bool(ratio < self.threshold),
            ratio=ratio,
            threshold=self.threshold,
            window_ratios=np.array([ratio]),
        )

    def classify_windows(self, welch_result) -> DetectionResult:
        """Screen a Welch-Lomb result window by window.

        The per-window LF/HF ratios come from one pass of
        :func:`~repro.hrv.metrics.window_lf_hf_ratios`, the function PSA
        result assembly uses too, and :meth:`classify_ratios` decides
        from them.
        """
        spectrogram = np.asarray(welch_result.spectrogram, dtype=np.float64)
        if spectrogram.ndim != 2 or spectrogram.shape[0] < 1:
            raise SignalError("welch_result has no analysable windows")
        return self.classify_ratios(
            window_lf_hf_ratios(spectrogram, welch_result.frequencies)
        )

    def classify_ratios(self, window_ratios) -> DetectionResult:
        """Screen precomputed per-window LF/HF ratios.

        The decision uses the mean of the ratios, which is how the paper
        aggregates its hourly time-frequency distributions (Section
        VI.A).  The result keeps its own copy of *window_ratios*.
        """
        ratios = np.array(window_ratios, dtype=np.float64)
        if ratios.ndim != 1 or ratios.size < 1:
            raise SignalError("no window ratios to screen")
        mean_ratio = float(ratios.mean())
        return DetectionResult(
            is_arrhythmia=bool(mean_ratio < self.threshold),
            ratio=mean_ratio,
            threshold=self.threshold,
            window_ratios=ratios,
        )

    def agreement(self, reference: DetectionResult, other: DetectionResult) -> bool:
        """True when two screenings reach the same decision.

        Used by the evaluation harness to verify that the approximated
        system "does not affect the system detection capability".
        """
        return reference.is_arrhythmia == other.is_arrhythmia
