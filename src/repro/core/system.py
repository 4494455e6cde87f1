"""The two PSA systems the paper compares.

:class:`ConventionalPSA` is the baseline of Section II.B: Welch-Lomb
with a split-radix FFT.  :class:`QualityScalablePSA` is the proposed
system: the same pipeline with the FFT swapped for the pruned
DWT-based kernel, plus the energy-evaluation hooks of Section VI
(static/dynamic pruning, VFS against the conventional deadline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SignalError
from ..ffts.backends import FFTBackend
from ..ffts.opcount import OpCounts
from ..ffts.plancache import split_radix_plan, wavelet_plan
from ..ffts.pruning import PruningSpec
from ..hrv.bands import STANDARD_BANDS, band_powers
from ..hrv.detection import DetectionResult, SinusArrhythmiaDetector
from ..hrv.metrics import lf_hf_ratio, window_lf_hf_ratios
from ..hrv.rr import RRSeries
from ..lomb.fast import FastLomb
from ..lomb.welch import WelchLomb, WelchLombResult
from ..platform.node import ComparisonReport, SensorNodeModel
from .config import PSAConfig

__all__ = ["PSAResult", "ConventionalPSA", "QualityScalablePSA"]

@dataclass(frozen=True)
class PSAResult:
    """Output of one PSA run over a recording.

    Attributes
    ----------
    welch:
        The full Welch-Lomb result (spectrogram + average).
    lf_hf:
        LF/HF band-power ratio of the averaged spectrum (Table I metric).
    band_powers:
        Integrated ULF/VLF/LF/HF powers of the averaged spectrum.
    window_ratios:
        Per-window LF/HF ratios (the hourly-monitoring view).
    detection:
        Sinus-arrhythmia screening of the averaged windows.
    counts:
        Total operation counts (``None`` unless requested).
    """

    welch: WelchLombResult
    lf_hf: float
    band_powers: dict[str, float]
    window_ratios: np.ndarray
    detection: DetectionResult
    counts: OpCounts | None = None

    @property
    def frequencies(self) -> np.ndarray:
        return self.welch.frequencies

    @property
    def averaged_power(self) -> np.ndarray:
        return self.welch.averaged

    @property
    def window_metrics(self):
        """Per-window time-domain metrics and quality flags.

        One :class:`~repro.hrv.metrics.WindowMetrics` per analysed
        window, aligned with ``welch.spectrogram`` rows (empty when the
        run predates or skipped metrics computation).
        """
        return self.welch.window_metrics


class _BasePSA:
    """Shared pipeline driver; subclasses supply the FFT backend."""

    def __init__(self, config: PSAConfig | None = None):
        self.config = config or PSAConfig()
        self._backend = self._build_backend()
        self._welch = WelchLomb(
            FastLomb(
                workspace_size=self.config.fft_size,
                oversample=self.config.oversample,
                max_frequency=self.config.max_frequency,
                backend=self._backend,
                scaling=self.config.scaling,
            ),
            window_seconds=self.config.window_seconds,
            overlap=self.config.overlap,
        )
        self._detector = SinusArrhythmiaDetector()
        #: Band-power integration edges reported in results; the engine
        #: facade overrides this from ``EngineConfig.bands``.
        self.bands = STANDARD_BANDS

    def _build_backend(self) -> FFTBackend:
        raise NotImplementedError

    @property
    def backend(self) -> FFTBackend:
        """The FFT kernel this system runs."""
        return self._backend

    @property
    def welch(self) -> WelchLomb:
        """The windowed Welch-Lomb engine driving this system."""
        return self._welch

    def analyze(self, rr: RRSeries, count_ops: bool = False) -> PSAResult:
        """Run the full PSA over an RR recording.

        Execution settings (provider, chunk size) live on the engine
        facade (:mod:`repro.engine`); the per-window sequential oracle
        is
        :meth:`WelchLomb.analyze_windows(batched=False) <repro.lomb.welch.WelchLomb.analyze_windows>`.
        """
        if not isinstance(rr, RRSeries):
            raise SignalError("analyze expects an RRSeries")
        welch = self._welch.analyze_windows(
            rr.times,
            rr.intervals,
            count_ops=count_ops,
            corrected=rr.corrected,
        )
        return self._finalize(welch)

    def _finalize(self, welch: WelchLombResult) -> PSAResult:
        """Clinical post-processing of one recording's Welch result.

        Every finalize path runs through here: :meth:`analyze`,
        :meth:`analyze_cohort`, streaming-session and hub finalize, and
        so the gateway's ``result`` frame.  Each therefore reports
        exactly what the single-recording path does.  The per-window
        LF/HF ratios are computed in one pass and the detector decides
        from them.
        """
        averaged = welch.averaged_spectrum()
        ratios = window_lf_hf_ratios(welch.spectrogram, welch.frequencies)
        detection = self._detector.classify_ratios(ratios)
        return PSAResult(
            welch=welch,
            lf_hf=lf_hf_ratio(averaged),
            band_powers=band_powers(averaged, bands=self.bands),
            window_ratios=ratios,
            detection=detection,
            counts=welch.counts,
        )

    def to_engine_config(
        self,
        jobs: int | None = 1,
        provider: str | None = None,
        chunk_windows: int | None = None,
    ):
        """This system's declarative :class:`~repro.engine.EngineConfig`.

        The bridge from the legacy object-construction style to the
        facade: the returned config rebuilds (or describes) exactly
        this system — kind, pruning spec, pipeline geometry and band
        edges — plus the given execution settings.
        """
        from ..engine.config import EngineConfig

        return EngineConfig(
            system=(
                "quality-scalable"
                if isinstance(self, QualityScalablePSA)
                else "conventional"
            ),
            pruning=getattr(self, "pruning", PruningSpec.none()),
            psa=self.config,
            provider=provider,
            chunk_windows=chunk_windows,
            jobs=jobs,
            bands=self.bands,
        )

    def analyze_cohort(
        self, recordings, count_ops: bool = False
    ) -> list[PSAResult]:
        """Run the full PSA over many recordings with the fleet engine.

        Thin delegating wrapper over the engine facade: the cohort runs
        through :meth:`repro.engine.Engine.analyze_cohort` on a
        transient single-process engine wrapping this system, so
        spectra, averages and operation counts are identical to
        per-recording :meth:`analyze` calls.  Execution settings are
        :class:`~repro.engine.EngineConfig` fields
        (``Engine(EngineConfig(jobs=..., provider=...))``).
        """
        rr_list = list(recordings)
        for rr in rr_list:
            if not isinstance(rr, RRSeries):
                raise SignalError("analyze_cohort expects RRSeries recordings")
        from ..engine.engine import Engine

        with Engine(self.to_engine_config(), system=self) as engine:
            return engine.analyze_cohort(rr_list, count_ops=count_ops)

    def window_counts(self, n_beats: int | None = None) -> OpCounts:
        """Design-time operation count of one nominal analysis window."""
        beats = n_beats or self.config.nominal_beats_per_window
        return self._welch.analyzer.static_counts(
            beats, self.config.window_seconds
        )


class ConventionalPSA(_BasePSA):
    """The baseline system: Welch-Lomb on a split-radix FFT (Fig. 1a)."""

    def _build_backend(self) -> FFTBackend:
        # Kernels are stateless after planning; the shared cached plan
        # makes fleet-scale system construction O(1) after the first.
        return split_radix_plan(self.config.fft_size)


class QualityScalablePSA(_BasePSA):
    """The proposed system: Welch-Lomb on the pruned DWT-based FFT.

    Parameters
    ----------
    config:
        Shared pipeline configuration.
    pruning:
        The approximation mode (band drop, twiddle sets, static or
        dynamic); defaults to the exact wavelet FFT.
    node:
        Platform model used by :meth:`energy_report`.
    """

    def __init__(
        self,
        config: PSAConfig | None = None,
        pruning: PruningSpec | None = None,
        node: SensorNodeModel | None = None,
    ):
        self.pruning = pruning or PruningSpec.none()
        super().__init__(config)
        self.node = node or SensorNodeModel()

    def _build_backend(self) -> FFTBackend:
        return wavelet_plan(
            self.config.fft_size,
            basis=self.config.basis,
            pruning=self.pruning,
        )

    def energy_report(
        self,
        reference: ConventionalPSA | None = None,
        apply_vfs: bool = True,
        fft_only: bool = False,
        n_beats: int | None = None,
    ) -> ComparisonReport:
        """Energy comparison against the conventional system (Fig. 9).

        Parameters
        ----------
        reference:
            Baseline system; a default-config conventional system is
            built when omitted.
        apply_vfs:
            Allow voltage-frequency scaling within the baseline deadline.
        fft_only:
            Compare the FFT kernels alone (the paper's Fig. 5/9 framing,
            where the FFT dominates the node) instead of whole windows.
        n_beats:
            Beats per window for the whole-window comparison.
        """
        reference = reference or ConventionalPSA(self.config)
        if fft_only:
            mine = self._backend.static_counts()
            theirs = reference.backend.static_counts()
        else:
            mine = self.window_counts(n_beats)
            theirs = reference.window_counts(n_beats)
        return self.node.evaluate_against_baseline(
            mine, theirs, apply_vfs=apply_vfs
        )
