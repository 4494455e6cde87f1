"""The row reductions against the per-window loops they replaced.

:func:`~repro.hrv.metrics.window_metrics_batch` reduces each group of
equal-length windows as one C-contiguous block,
:func:`~repro.hrv.metrics.window_lf_hf_ratios` sums the band columns of
every row in one call, and the Fast-Lomb kernel takes ragged window
means per sample count.  The loops those replaced live on here as
references, and each row reduction must equal its reference byte for
byte — NaN payloads, zero- and one-beat spans and Python scalar types
included.

Golden digests pin the window metrics and LF/HF ratios of three seeded
24 h recordings on both systems.  The stream-vs-batch matrices compare
two paths that share these reductions, so a change that moves both
sides together passes them; these digests do not.

The malformed-span suite pins the typed errors the span choke points
raise, in-process and from a worker daemon.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.ecg.rr_synthesis import TachogramSpec, generate_tachogram
from repro.engine import Engine, EngineConfig
from repro.errors import SignalError
from repro.fleet import RemoteTaskError, RemoteWorker, WorkerDaemon
from repro.fleet.worker import unpack_metrics
from repro.hrv.bands import HF_BAND
from repro.hrv.metrics import (
    ARTIFACT_RUN_LENGTH,
    FEW_BEATS_THRESHOLD,
    FLAG_ARTIFACT_RUN,
    FLAG_FEW_BEATS,
    FLAG_HIGH_CORRECTED,
    HIGH_CORRECTED_FRACTION,
    WindowMetrics,
    lf_hf_ratio,
    window_lf_hf_ratios,
    window_metrics_batch,
)
from repro.hrv.preprocessing import filter_artifacts
from repro.lomb.fast import _row_means
from repro.lomb.welch import WelchLomb, analyze_spans_quality
from repro.perf.workspace import get_active_arena, set_active_arena

#: Beat counts at numpy's pairwise-summation boundaries: below 8 it
#: sums sequentially, up to 128 in eight lanes, and beyond that it
#: splits recursively.
PAIRWISE_LENGTHS = (0, 1, 2, 7, 8, 9, 127, 128, 129, 256, 257)


# ----------------------------------------------------------------------
# References: the loops the row reductions replaced
# ----------------------------------------------------------------------


def _longest_run(mask: np.ndarray) -> int:
    nonzero = mask != 0.0
    if not nonzero.any():
        return 0
    padded = np.concatenate(([False], nonzero, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return int(np.max(edges[1::2] - edges[0::2]))


def _metrics_reference(values, spans, corrected=None):
    rr = np.ascontiguousarray(values, dtype=np.float64)
    mask = None
    if corrected is not None:
        mask = np.ascontiguousarray(corrected, dtype=np.float64)
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
                n, mean_rr, sdnn_ms, rmssd_ms, p50, p20, fraction, flags
            )
        )
    return tuple(out)


def _ratios_reference(spectrogram, frequencies) -> np.ndarray:
    return np.array(
        [lf_hf_ratio(row, frequencies=frequencies) for row in spectrogram]
    )


def _means_reference(x: np.ndarray, ns: np.ndarray) -> np.ndarray:
    return np.array([x[i, : ns[i]].mean() for i in range(x.shape[0])])


def _columns(metrics) -> tuple[bytes, list]:
    """Every field's float64 bytes (NaN payloads too) and scalar types."""
    names = list(WindowMetrics.__dataclass_fields__)
    values = [[getattr(m, name) for name in names] for m in metrics]
    types = [tuple(map(type, row)) for row in values]
    return np.array(values, dtype=np.float64).tobytes(), types


def _assert_same_metrics(actual, expected):
    assert len(actual) == len(expected)
    assert all(type(m) is WindowMetrics for m in actual)
    assert _columns(actual) == _columns(expected)


# ----------------------------------------------------------------------
# Window metrics
# ----------------------------------------------------------------------


@st.composite
def _span_batches(draw):
    lengths = draw(
        st.lists(
            st.one_of(
                st.sampled_from(PAIRWISE_LENGTHS), st.integers(0, 300)
            ),
            max_size=24,
        )
    )
    size = max(lengths, default=0) + draw(st.integers(0, 40))
    spans = []
    for n in lengths:
        lo = draw(st.integers(0, size - n))
        spans.append((lo, lo + n))
    if spans:
        # Duplicates and whole equal-length groups.
        spans += draw(st.lists(st.sampled_from(spans), max_size=6))
        spans = draw(st.permutations(spans))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1e-3, 0.2, 1.5]))
    values = 0.3 + rng.random(size) * spread
    if size and draw(st.booleans()):
        values[rng.integers(0, size, 3)] = np.nan
    kind = draw(
        st.sampled_from(["none", "bool", "float", "weights", "zeros"])
    )
    flips = rng.random(size) < draw(st.sampled_from([0.02, 0.3, 0.9]))
    mask = {
        "none": None,
        "bool": flips,
        "float": flips.astype(np.float64),
        "weights": flips * rng.random(size),
        "zeros": np.zeros(size),
    }[kind]
    return values, spans, mask


class TestWindowMetrics:
    @given(batch=_span_batches())
    @settings(max_examples=80, deadline=None)
    def test_equals_per_window_loop(self, batch):
        values, spans, mask = batch
        _assert_same_metrics(
            window_metrics_batch(values, spans, corrected=mask),
            _metrics_reference(values, spans, corrected=mask),
        )

    @pytest.mark.parametrize("n", PAIRWISE_LENGTHS)
    def test_pairwise_boundaries_in_large_groups(self, rng, n):
        values = 0.8 + 0.1 * rng.standard_normal(5000)
        mask = (rng.random(5000) < 0.2).astype(np.float64)
        lo = rng.integers(0, 5000 - n, 300)
        spans = list(zip(lo.tolist(), (lo + n).tolist()))
        _assert_same_metrics(
            window_metrics_batch(values, spans, corrected=mask),
            _metrics_reference(values, spans, corrected=mask),
        )


# ----------------------------------------------------------------------
# LF/HF ratios
# ----------------------------------------------------------------------


class TestLfHfRatios:
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 400),
        cols=st.integers(2, 300),
        fortran=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_per_row_loop(self, seed, rows, cols, fortran):
        rng = np.random.default_rng(seed)
        freqs = np.linspace(0.0, 0.5, cols)
        power = rng.random((rows, cols)) * 10.0 ** rng.uniform(-6, 3)
        if fortran:
            power = np.asfortranarray(power)
        try:
            expected = _ratios_reference(power, freqs)
        except SignalError as exc:
            with pytest.raises(SignalError, match=re.escape(str(exc))):
                window_lf_hf_ratios(power, freqs)
            return
        ratios = window_lf_hf_ratios(power, freqs)
        assert ratios.tobytes() == expected.tobytes()

    def test_column_selection_trap(self):
        """A boolean column selection is F-ordered: its ``axis=1`` sum
        rounds differently from the per-row sums, and the ratios must
        not take it."""
        rng = np.random.default_rng(2014)
        freqs = np.linspace(0.0, 0.5, 257)
        power = rng.random((512, freqs.size)) * 1e3
        band = HF_BAND.contains(freqs)
        selection = power[:, band]
        assert not selection.flags.c_contiguous
        per_row = np.array([np.sum(row) for row in selection])
        assert not np.array_equal(selection.sum(axis=1), per_row), (
            "this numpy sums a column selection like the rows; the trap "
            "the ratios avoid is gone"
        )
        ratios = window_lf_hf_ratios(power, freqs)
        assert ratios.tobytes() == _ratios_reference(power, freqs).tobytes()


# ----------------------------------------------------------------------
# Ragged window means in the Fast-Lomb kernel
# ----------------------------------------------------------------------


class TestRowMeans:
    @pytest.mark.parametrize("rows", [1, 7, 480])
    def test_ragged_means_equal_per_row_mean(self, rng, rows):
        width = 320
        x = np.zeros((rows, width))
        ns = rng.choice(
            [*PAIRWISE_LENGTHS[3:], *rng.integers(4, width, 6)], rows
        ).astype(np.int64)
        for i, n in enumerate(ns):
            x[i, :n] = 0.5 + rng.random(n)
        out = _row_means(x, ns, np.empty(rows))
        assert out.tobytes() == _means_reference(x, ns).tobytes()

    def test_equal_length_strided_view(self, rng):
        series = 0.5 + rng.random(2000)
        x = sliding_window_view(series, 150)[::37]
        ns = np.full(x.shape[0], 150)
        out = _row_means(x, ns, np.empty(x.shape[0]))
        assert out.tobytes() == _means_reference(x, ns).tobytes()


# ----------------------------------------------------------------------
# Golden digests (taken before the row reductions)
# ----------------------------------------------------------------------

#: Three cleaned 24 h tachograms: 4 to 7 distinct beat counts per
#: window, 32 to 382 flagged windows.
GOLDEN_SPECS = {
    11: TachogramSpec(seed=11, ectopic_rate=0.01),
    22: TachogramSpec(seed=22, mean_rr=0.7, jitter=0.02, ectopic_rate=0.02),
    33: TachogramSpec(seed=33, mean_rr=1.05, ectopic_rate=0.005),
}

#: blake2b-128 of the JSON window metrics and of the window ratios'
#: float64 bytes: ``(seed, mode) -> (metrics digest, ratios digest)``.
GOLDEN = {
    (11, "exact"): (
        "79cfafe3ecc81af07958c70f5b8c6ac2", "9ca41502c0586cc956ca5e0127a64a9a"
    ),
    (11, "set3"): (
        "79cfafe3ecc81af07958c70f5b8c6ac2", "eee6436ed75837002be4d8536725cc74"
    ),
    (22, "exact"): (
        "19f737d736418acf3e81e467e98b82f5", "f6046abc59eaa504afc9b56cffdd865f"
    ),
    (22, "set3"): (
        "19f737d736418acf3e81e467e98b82f5", "b832ed49fe6445fd997f9a39d5cb4e00"
    ),
    (33, "exact"): (
        "828a235779e3aac704cbf3d11a6f8c0c", "1384d0ed2d78d89bee1d70dcdb4b4b6f"
    ),
    (33, "set3"): (
        "828a235779e3aac704cbf3d11a6f8c0c", "ab30ad1f8ef4283d3fe5ed7137ab03dc"
    ),
}


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def golden_recordings():
    return {
        seed: filter_artifacts(generate_tachogram(spec, 86400.0)).series
        for seed, spec in GOLDEN_SPECS.items()
    }


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_window_metrics_and_ratios(golden_recordings, key):
    seed, mode = key
    with Engine(EngineConfig.for_mode(mode, provider="numpy")) as engine:
        result = engine.analyze(golden_recordings[seed])
    metrics = json.dumps([m.to_dict() for m in result.welch.window_metrics])
    assert (
        _digest(metrics.encode()),
        _digest(result.window_ratios.tobytes()),
    ) == GOLDEN[key]


# ----------------------------------------------------------------------
# Malformed spans
# ----------------------------------------------------------------------

#: Spans into a 920-beat recording that used to analyse the wrong beats
#: (negative bounds slice from the end), return fewer spectra than
#: metrics (past the end), or fail with an untyped ValueError
#: (reversed).
BAD_SPANS = {
    "negative": [(-150, -1)],
    "past_end": [(770, 1420)],
    "reversed": [(200, 100)],
}


@pytest.fixture(scope="module")
def recording_920():
    rr = generate_tachogram(TachogramSpec(seed=920), 900.0)
    assert rr.times.size >= 920
    return rr.times[:920].copy(), rr.intervals[:920].copy()


class _UntouchedKernel:
    """An analyzer that fails the test if the kernel is reached."""

    def __getattr__(self, name):
        raise AssertionError(f"kernel work started: analyzer.{name}")


class TestMalformedSpans:
    @pytest.mark.parametrize("name", sorted(BAD_SPANS))
    def test_choke_point_raises_typed_error(self, recording_920, name):
        times, values = recording_920
        spans = [(0, 150), *BAD_SPANS[name]]
        lo, hi = BAD_SPANS[name][0]
        with pytest.raises(SignalError, match=rf"span 1 \({lo}, {hi}\)"):
            analyze_spans_quality(_UntouchedKernel(), times, values, spans)

    @pytest.mark.parametrize(
        "spans",
        [[(0, 150), (150, 150)], [(0.0, 150.0)], [(0, 150, 300)], [(0,)]],
    )
    def test_choke_point_rejects_empty_and_non_integer(
        self, recording_920, spans
    ):
        times, values = recording_920
        with pytest.raises(SignalError, match="span"):
            analyze_spans_quality(_UntouchedKernel(), times, values, spans)

    def test_metrics_allow_empty_but_not_outside(self, recording_920):
        _, values = recording_920
        assert len(window_metrics_batch(values, [(5, 5), (0, 920)])) == 2
        for name, spans in BAD_SPANS.items():
            with pytest.raises(SignalError, match="span 0"):
                window_metrics_batch(values, spans)

    def test_no_spans_is_no_windows(self, recording_920):
        times, values = recording_920
        spectra, metrics = analyze_spans_quality(
            WelchLomb().analyzer, times, values, []
        )
        assert spectra == [] and metrics == ()

    @pytest.mark.slow
    def test_worker_daemon_returns_task_error(self, recording_920):
        # An in-process daemon installs its arena process-wide, as a
        # daemon process would; put the test process's one back after.
        previous = get_active_arena()
        try:
            self._daemon_round_trip(*recording_920)
        finally:
            set_active_arena(previous)

    @staticmethod
    def _daemon_round_trip(times, values):
        config = EngineConfig(provider="numpy")
        resolved = config.resolve()
        good = [(0, 150), (75, 240)]
        with WorkerDaemon() as daemon:
            daemon.start()
            worker = RemoteWorker(daemon.address, timeout=10.0)
            worker.connect(
                {
                    "config": config.to_dict(),
                    "provider": resolved.provider,
                    "chunk_windows": resolved.chunk_windows,
                }
            )
            try:
                worker.ensure_array(0, times)
                worker.ensure_array(1, values)
                for task_id, spans in enumerate(BAD_SPANS.values()):
                    with pytest.raises(
                        RemoteTaskError, match=r"SignalError: span 0 \("
                    ):
                        worker.run_task(task_id, 0, 1, spans, False)
                # The connection survives a rejected task.
                _packed, metrics = worker.run_task(9, 0, 1, good, False)
                assert unpack_metrics(metrics) == window_metrics_batch(
                    values, good
                )
            finally:
                worker.close()


# ----------------------------------------------------------------------
# Mismatched sample arrays
# ----------------------------------------------------------------------

#: ``(times, values)`` shapes the choke point must refuse.  Before the
#: check, a short ``times`` failed with an untyped broadcast ValueError
#: inside the kernel and a 2-D ``times`` with a TypeError.
BAD_ARRAYS = ("times_short", "values_short", "times_2d", "values_2d")


def _bad_arrays(times, values, name):
    return {
        "times_short": (times[:-20], values),
        "values_short": (times, values[:-20]),
        "times_2d": (times.reshape(2, -1), values),
        "values_2d": (times, values.reshape(2, -1)),
    }[name]


class TestMismatchedSampleArrays:
    @pytest.mark.parametrize("name", BAD_ARRAYS)
    def test_choke_point_raises_typed_error(self, recording_920, name):
        times, values = _bad_arrays(*recording_920, name)
        with pytest.raises(SignalError, match="must be 1-D arrays of equal"):
            analyze_spans_quality(
                _UntouchedKernel(), times, values, [(0, 150)]
            )

    @pytest.mark.slow
    def test_worker_daemon_returns_task_error(self, recording_920):
        previous = get_active_arena()
        try:
            self._daemon_round_trip(*recording_920)
        finally:
            set_active_arena(previous)

    @staticmethod
    def _daemon_round_trip(times, values):
        config = EngineConfig(provider="numpy")
        resolved = config.resolve()
        good = [(0, 150), (75, 240)]
        with WorkerDaemon() as daemon:
            daemon.start()
            worker = RemoteWorker(daemon.address, timeout=10.0)
            worker.connect(
                {
                    "config": config.to_dict(),
                    "provider": resolved.provider,
                    "chunk_windows": resolved.chunk_windows,
                }
            )
            try:
                worker.ensure_array(0, times)
                worker.ensure_array(1, values)
                for task_id, name in enumerate(BAD_ARRAYS):
                    bad_t, bad_x = _bad_arrays(times, values, name)
                    worker.ensure_array(2 + 2 * task_id, bad_t)
                    worker.ensure_array(3 + 2 * task_id, bad_x)
                    with pytest.raises(
                        RemoteTaskError,
                        match="SignalError: times and values must be 1-D",
                    ):
                        worker.run_task(
                            task_id, 2 + 2 * task_id, 3 + 2 * task_id,
                            [(0, 150)], False,
                        )
                # The connection survives a rejected task.
                _packed, metrics = worker.run_task(9, 0, 1, good, False)
                assert unpack_metrics(metrics) == window_metrics_batch(
                    values, good
                )
            finally:
                worker.close()
