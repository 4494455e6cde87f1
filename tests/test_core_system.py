"""Tests for the core PSA systems (config, conventional, quality-scalable)."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from repro import (
    ConventionalPSA,
    EngineConfig,
    PSAConfig,
    PruningSpec,
    QualityScalablePSA,
    TachogramSpec,
    make_cohort,
)
from repro.ecg.rr_synthesis import generate_tachogram
from repro.engine import build_system
from repro.errors import ConfigurationError, SignalError
from repro.hrv import (
    HF_BAND,
    RRSeries,
    SinusArrhythmiaDetector,
    filter_artifacts,
    lf_hf_ratio,
)
from repro.hrv.metrics import window_lf_hf_ratios


@pytest.fixture(scope="module")
def rsa_recording():
    return make_cohort().get("rsa-01").rr_series(duration=480.0)


@pytest.fixture(scope="module")
def healthy_recording():
    return make_cohort().get("ctl-01").rr_series(duration=480.0)


class TestPSAConfig:
    def test_defaults_match_paper(self):
        config = PSAConfig()
        assert config.fft_size == 512
        assert config.window_seconds == 120.0
        assert config.overlap == 0.5
        assert config.basis == "haar"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PSAConfig(fft_size=500)
        with pytest.raises(ConfigurationError):
            PSAConfig(overlap=1.0)
        with pytest.raises(ConfigurationError):
            PSAConfig(basis="coif5")
        with pytest.raises(ConfigurationError):
            PSAConfig(scaling="weird")
        with pytest.raises(ConfigurationError):
            # 10-minute windows cannot reach 0.4 Hz on a 512 workspace.
            PSAConfig(window_seconds=600.0)

    def test_with_helpers(self):
        config = PSAConfig()
        assert config.with_basis("db2").basis == "db2"
        assert config.with_fft_size(1024).fft_size == 1024
        assert config.basis == "haar"  # original untouched

    def test_nominal_beats(self):
        assert PSAConfig().nominal_beats_per_window == 140


class TestConventionalPSA:
    def test_analyze_structure(self, rsa_recording):
        result = ConventionalPSA().analyze(rsa_recording)
        assert result.lf_hf > 0
        assert set(result.band_powers) == {"ULF", "VLF", "LF", "HF"}
        assert result.window_ratios.size == result.welch.n_windows
        assert result.frequencies[-1] <= 0.4 + 1e-9

    def test_detects_arrhythmia(self, rsa_recording):
        result = ConventionalPSA().analyze(rsa_recording)
        assert result.detection.is_arrhythmia
        assert result.lf_hf < 1.0

    def test_healthy_not_flagged(self, healthy_recording):
        result = ConventionalPSA().analyze(healthy_recording)
        assert not result.detection.is_arrhythmia
        assert result.lf_hf > 1.0

    def test_counts_on_request(self, rsa_recording):
        without = ConventionalPSA().analyze(rsa_recording)
        with_counts = ConventionalPSA().analyze(rsa_recording, count_ops=True)
        assert without.counts is None
        assert with_counts.counts is not None
        assert with_counts.counts.total > 0

    def test_requires_rr_series(self):
        with pytest.raises(SignalError):
            ConventionalPSA().analyze([0.8, 0.9, 1.0])

    def test_analyze_cohort_matches_analyze(self, rsa_recording):
        results = ConventionalPSA().analyze_cohort(
            [rsa_recording], count_ops=True
        )
        single = ConventionalPSA().analyze(rsa_recording, count_ops=True)
        assert np.array_equal(
            results[0].welch.spectrogram, single.welch.spectrogram
        )
        assert results[0].counts == single.counts

    def test_analyze_cohort_requires_rr_series(self):
        with pytest.raises(SignalError, match="RRSeries"):
            ConventionalPSA().analyze_cohort([(1, 2, 3)])

    def test_window_counts_fft_dominated(self):
        system = ConventionalPSA()
        window = system.window_counts()
        fft = system.backend.static_counts()
        assert fft.total / window.total > 0.5


class TestQualityScalablePSA:
    def test_exact_mode_matches_conventional(self, rsa_recording):
        conv = ConventionalPSA().analyze(rsa_recording)
        exact = QualityScalablePSA(pruning=PruningSpec.none()).analyze(
            rsa_recording
        )
        assert exact.lf_hf == pytest.approx(conv.lf_hf, rel=1e-6)

    @pytest.mark.parametrize("set_index", [1, 2, 3])
    def test_pruned_ratio_error_small(self, rsa_recording, set_index):
        """The paper's core claim: pruning costs only a few percent of
        LF/HF accuracy (Table I: <= ~10 %)."""
        conv = ConventionalPSA().analyze(rsa_recording)
        pruned = QualityScalablePSA(
            pruning=PruningSpec.paper_mode(set_index)
        ).analyze(rsa_recording)
        rel_err = abs(pruned.lf_hf - conv.lf_hf) / conv.lf_hf
        assert rel_err < 0.12

    def test_detection_preserved_under_max_pruning(
        self, rsa_recording, healthy_recording
    ):
        """Section VI.A: 'in all cases we could correctly identify the
        sinus-arrhythmia condition'."""
        system = QualityScalablePSA(pruning=PruningSpec.paper_mode(3))
        assert system.analyze(rsa_recording).detection.is_arrhythmia
        assert not system.analyze(healthy_recording).detection.is_arrhythmia

    def test_energy_report_fft_only(self):
        system = QualityScalablePSA(pruning=PruningSpec.paper_mode(3))
        static = system.energy_report(apply_vfs=False, fft_only=True)
        vfs = system.energy_report(apply_vfs=True, fft_only=True)
        assert 0.30 < static.energy_savings < 0.55
        assert 0.65 < vfs.energy_savings < 0.88
        assert vfs.approximate.operating_point.voltage < 1.0

    def test_energy_report_whole_window(self):
        system = QualityScalablePSA(pruning=PruningSpec.paper_mode(3))
        report = system.energy_report(apply_vfs=True, fft_only=False)
        assert 0.2 < report.energy_savings < 0.7

    def test_energy_savings_grow_with_mode(self):
        savings = []
        for mode in (1, 2, 3):
            system = QualityScalablePSA(pruning=PruningSpec.paper_mode(mode))
            savings.append(
                system.energy_report(apply_vfs=True, fft_only=True).energy_savings
            )
        assert savings[0] < savings[1] < savings[2]

    def test_dynamic_costs_more_energy_than_static(self):
        static = QualityScalablePSA(pruning=PruningSpec.paper_mode(3))
        dynamic = QualityScalablePSA(
            pruning=PruningSpec.paper_mode(3, dynamic=True)
        )
        s = static.energy_report(apply_vfs=True, fft_only=True).energy_savings
        d = dynamic.energy_report(apply_vfs=True, fft_only=True).energy_savings
        assert d < s

    def test_db_bases_work_end_to_end(self, rsa_recording):
        for basis in ("db2", "db4"):
            system = QualityScalablePSA(
                config=PSAConfig(basis=basis),
                pruning=PruningSpec.band_only(),
            )
            result = system.analyze(rsa_recording)
            assert result.detection.is_arrhythmia


class TestWindowRatiosMonitoring:
    def test_hourly_monitoring_window_count(self):
        """One hour at 50 % overlap -> ~58 windows (Section VI.A)."""
        rr = make_cohort().get("rsa-05").rr_series(duration=3600.0)
        result = ConventionalPSA().analyze(rr)
        assert 50 <= result.welch.n_windows <= 62

    def test_window_ratios_all_below_one_for_rsa(self, rsa_recording):
        result = ConventionalPSA().analyze(rsa_recording)
        assert np.mean(result.window_ratios < 1.0) > 0.9


#: Both PSA systems: the conventional one, and the quality-scalable one
#: at every level of the paper's quality ladder.
SYSTEMS = [("conventional", "exact")] + [
    ("quality-scalable", level)
    for level in ("exact", "band", "set1", "set2", "set3")
]


@pytest.fixture(scope="module")
def cleaned_holter():
    """Three hours with ectopic beats, artifact-corrected."""
    raw = generate_tachogram(TachogramSpec(ectopic_rate=0.02, seed=11), 10800.0)
    return filter_artifacts(raw).series


def _per_spectrum_ratios(welch):
    """The reference: one :func:`lf_hf_ratio` call per window."""
    return np.array(
        [
            lf_hf_ratio(row, frequencies=welch.frequencies)
            for row in welch.spectrogram
        ]
    )


def _with_row_fault(welch, row, fault):
    """*welch* with one spectrogram row's HF band zeroed or a bin NaN."""
    spectrogram = welch.spectrogram.copy()
    if fault == "zero_hf":
        spectrogram[row, HF_BAND.contains(welch.frequencies)] = 0.0
    else:
        spectrogram[row, 3] = np.nan
    return dataclasses.replace(welch, spectrogram=spectrogram)


class TestResultAssemblyRatios:
    """Result assembly's one-pass per-window LF/HF ratios."""

    @pytest.mark.parametrize("kind, level", SYSTEMS)
    def test_bit_identical_to_per_spectrum_loop(
        self, cleaned_holter, kind, level
    ):
        config = EngineConfig.for_mode(level).replace(system=kind)
        result = build_system(config).analyze(cleaned_holter)
        welch = result.welch
        assert cleaned_holter.corrected.any()
        assert len({s.n_samples for s in welch.window_spectra}) > 1
        reference = _per_spectrum_ratios(welch)
        one_pass = window_lf_hf_ratios(welch.spectrogram, welch.frequencies)
        assert one_pass.tobytes() == reference.tobytes()
        assert result.window_ratios.tobytes() == reference.tobytes()
        detection = result.detection
        assert detection.window_ratios.tobytes() == reference.tobytes()
        assert detection.ratio == float(reference.mean())
        assert detection.is_arrhythmia == (
            float(reference.mean()) < detection.threshold
        )
        screened = SinusArrhythmiaDetector().classify_windows(welch)
        assert screened.window_ratios.tobytes() == reference.tobytes()
        assert screened.ratio == detection.ratio

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("zero_hf", "HF band power is zero; LF/HF ratio undefined"),
            ("nan", "power contains non-finite values"),
        ],
    )
    def test_errors_unchanged(self, rsa_recording, fault, message):
        system = ConventionalPSA()
        bad = _with_row_fault(system.analyze(rsa_recording).welch, 2, fault)
        pattern = re.escape(message)
        with pytest.raises(SignalError, match=pattern):
            _per_spectrum_ratios(bad)
        with pytest.raises(SignalError, match=pattern):
            SinusArrhythmiaDetector().classify_windows(bad)
        with pytest.raises(SignalError, match=pattern):
            system._finalize(bad)

    def test_result_and_detection_ratios_are_separate(self, rsa_recording):
        result = ConventionalPSA().analyze(rsa_recording)
        own, detected = result.window_ratios, result.detection.window_ratios
        assert not np.shares_memory(own, detected)
        before = detected.copy()
        own[0] = -1.0
        assert detected.tobytes() == before.tobytes()
        before = own.copy()
        detected[1] = -2.0
        assert own.tobytes() == before.tobytes()
