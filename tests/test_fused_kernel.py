"""One kernel call over mixed quality levels equals one call per level.

A quality level changes only the Fast-Lomb FFT stage, so
:func:`~repro.lomb.welch.analyze_spans_quality` takes a per-span FFT
*owner* — the analyser of the span's ladder rung — and runs every other
stage once over all spans.  These differential properties pin that a
fused call is the per-owner homogeneous calls byte for byte (power,
frequencies, :class:`OpCounts`, window metrics) for random owner
assignments over ragged and uniform span layouts, at the smallest and
the default chunk size; and that an owner whose grid or combine
settings differ from the analyser's is refused before any kernel work.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lomb.fast as fast_module
from repro.ecg.rr_synthesis import TachogramSpec, generate_tachogram
from repro.engine import EngineConfig
from repro.engine.engine import build_system
from repro.errors import ConfigurationError
from repro.lomb.fast import FastLomb
from repro.lomb.welch import analyze_spans_quality
from repro.perf import execution


def _analyzer(mode: str, dynamic: bool = False) -> FastLomb:
    if mode == "full":
        config = EngineConfig(system="quality-scalable")
    else:
        config = EngineConfig.for_mode(mode, dynamic=dynamic)
    return build_system(config).welch.analyzer


#: Conventional exact, the unpruned wavelet system, band drop, the
#: three paper sets and a dynamically pruned set 2.
OWNERS = (
    _analyzer("exact"),
    _analyzer("full"),
    _analyzer("band"),
    _analyzer("set1"),
    _analyzer("set2"),
    _analyzer("set3"),
    _analyzer("set2", dynamic=True),
)

_RR = generate_tachogram(TachogramSpec(seed=16), 900.0)
TIMES, VALUES = _RR.times, _RR.intervals
CORRECTED = (np.arange(TIMES.size) % 11 == 0).astype(np.float64)

#: Ragged spans: different beat counts and durations, hence several
#: frequency-grid lengths (every ragged draw covers at least two).
#: Draws repeat them, so one grid group holds rows of several owners.
RAGGED = tuple(
    (lo, lo + n)
    for lo, n in ((0, 150), (40, 97), (75, 150), (200, 64), (310, 128),
                  (420, 150), (500, 40), (610, 110))
)


def _grid_lengths(spans):
    return {
        OWNERS[0]._grid(TIMES[hi - 1] - TIMES[lo], hi - lo)[1]
        for lo, hi in spans
    }


def _layouts():
    ragged = st.lists(
        st.sampled_from(RAGGED), min_size=2, max_size=14
    ).filter(lambda spans: len(_grid_lengths(spans)) >= 2)
    uniform = st.builds(
        lambda lo, n, step, count: tuple(
            (lo + k * step, lo + k * step + n) for k in range(count)
        ),
        st.integers(0, 100),
        st.integers(60, 150),
        st.integers(20, 60),
        st.integers(2, 10),
    )
    return st.one_of(ragged, uniform)


@st.composite
def _batches(draw):
    spans = list(draw(_layouts()))
    owners = draw(
        st.lists(
            st.sampled_from(range(len(OWNERS))),
            min_size=len(spans),
            max_size=len(spans),
        )
    )
    base = draw(st.sampled_from(range(len(OWNERS))))
    return spans, owners, base


class TestFusedEqualsPerOwner:
    @pytest.mark.parametrize("chunk", [2, 256])
    @settings(max_examples=30, deadline=None)
    @given(batch=_batches())
    def test_fused_call_matches_homogeneous_calls(self, chunk, batch):
        spans, owner_ids, base = batch
        with execution(provider="numpy", chunk_windows=chunk):
            spectra, metrics = analyze_spans_quality(
                OWNERS[base], TIMES, VALUES, spans, True,
                corrected=CORRECTED,
                owners=[OWNERS[k] for k in owner_ids],
            )
            assert len(spectra) == len(metrics) == len(spans)
            for k in set(owner_ids):
                rows = [i for i, owner in enumerate(owner_ids) if owner == k]
                want, want_metrics = analyze_spans_quality(
                    OWNERS[k], TIMES, VALUES, [spans[i] for i in rows],
                    True, corrected=CORRECTED,
                )
                for i, w, wm in zip(rows, want, want_metrics):
                    got = spectra[i]
                    assert got.power.tobytes() == w.power.tobytes()
                    assert got.frequencies.tobytes() == w.frequencies.tobytes()
                    assert got.counts == w.counts
                    assert metrics[i].to_dict() == wm.to_dict()


class TestOwnerChecks:
    @staticmethod
    def _variant(base: FastLomb, **changes) -> FastLomb:
        settings_ = {
            "workspace_size": base.workspace_size,
            "oversample": base.oversample,
            "max_frequency": base.max_frequency,
            "order": base.order,
            "scaling": base.scaling,
        }
        settings_.update(changes)
        return FastLomb(**settings_)

    @pytest.fixture
    def no_kernel_work(self, monkeypatch):
        def untouched(*args, **kwargs):
            raise AssertionError("kernel work started")

        monkeypatch.setattr(FastLomb, "_window_inputs", untouched)
        monkeypatch.setattr(fast_module, "scratch", untouched)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("workspace_size", 1024),
            ("oversample", 3.0),
            ("max_frequency", 0.5),
            ("order", 3),
            ("scaling", "standard"),
        ],
    )
    @pytest.mark.parametrize("uniform", [False, True])
    def test_mismatched_owner_is_refused(
        self, no_kernel_work, field, value, uniform
    ):
        base = OWNERS[0]
        stranger = self._variant(base, **{field: value})
        spans = [(0, 120), (60, 180)] if uniform else [(0, 120), (50, 200)]
        with pytest.raises(ConfigurationError, match=field):
            analyze_spans_quality(
                base, TIMES, VALUES, spans, owners=[OWNERS[5], stranger]
            )

    def test_owner_count_must_match_spans(self, no_kernel_work):
        with pytest.raises(ConfigurationError, match="2 FFT owners for 3"):
            analyze_spans_quality(
                OWNERS[0], TIMES, VALUES, [(0, 120), (50, 200), (90, 260)],
                owners=OWNERS[:2],
            )

    def test_owner_must_be_an_analyzer(self, no_kernel_work):
        with pytest.raises(ConfigurationError, match="FastLomb"):
            analyze_spans_quality(
                OWNERS[0], TIMES, VALUES, [(0, 120)], owners=["set3"]
            )

    def test_same_settings_in_another_object_are_accepted(self):
        twin = self._variant(OWNERS[0])
        spans = [(0, 120), (50, 200)]
        with execution(provider="numpy", chunk_windows=256):
            got, _ = analyze_spans_quality(
                OWNERS[0], TIMES, VALUES, spans, owners=[twin, OWNERS[0]]
            )
            want, _ = analyze_spans_quality(OWNERS[0], TIMES, VALUES, spans)
        for g, w in zip(got, want):
            assert g.power.tobytes() == w.power.tobytes()


def _two_grid_spans(count: int) -> list[tuple[int, int]]:
    """``count`` pairs of ~2-min spans, one of 94 and one of 95 bins.

    A pair shares its first beat: the shorter span ends at the last beat
    before 118.75 s (94 bins at 0.4 Hz), the longer one a beat later.
    """
    spans = []
    for k in range(count):
        lo = 130 * k
        hi = int(np.searchsorted(TIMES, TIMES[lo] + 118.75))
        spans += [(lo, hi), (lo, hi + 1)]
    return spans


class TestOnePassStructure:
    """A mixed-rung call over both grid lengths is one dense pass.

    Ten windows, one per rung at each grid length, at the five rungs of
    a ward ladder (exact or unpruned wavelet on top of the four
    band-drop rungs): one dense pass, one extirpolation scatter for both
    workspaces and one DWT for every wavelet rung, and the detail
    sub-FFT sees the rows of the rung that keeps the HH band only.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        # The package re-exports a function under the module's name.
        wavelet_module = importlib.import_module("repro.ffts.wavelet_fft")
        calls = {"dense": 0, "extirpolate": 0, "dwt": 0, "sub_fft": []}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            FastLomb,
            "_periodogram_group_dense",
            counting("dense", FastLomb._periodogram_group_dense),
        )
        monkeypatch.setattr(
            fast_module,
            "extirpolate_batch",
            counting("extirpolate", fast_module.extirpolate_batch),
        )
        monkeypatch.setattr(
            wavelet_module,
            "dwt_level_batch",
            counting("dwt", wavelet_module.dwt_level_batch),
        )
        sub_transform = wavelet_module.WaveletFFT._sub_transform_batch

        def recording(plan, x):
            calls["sub_fft"].append(np.array(x))
            return sub_transform(plan, x)

        monkeypatch.setattr(
            wavelet_module.WaveletFFT, "_sub_transform_batch", recording
        )
        return calls

    @pytest.mark.parametrize("count_ops", [False, True])
    @pytest.mark.parametrize("top", [0, 1], ids=["exact", "full"])
    def test_one_pass_one_scatter_one_dwt(self, calls, top, count_ops):
        spans = _two_grid_spans(5)
        assert _grid_lengths(spans) == {94, 95}
        rungs = [OWNERS[top], *OWNERS[2:6]]
        owners = [rung for rung in rungs for _ in range(2)]
        with execution(provider="numpy", chunk_windows=256):
            analyze_spans_quality(
                OWNERS[0], TIMES, VALUES, spans, count_ops, owners=owners
            )
            approx, *detail = calls.pop("sub_fft")
            assert calls == {"dense": 1, "extirpolate": 1, "dwt": 1}
            assert approx.shape[0] == (10 if top else 8)
            if not top:
                assert detail == []
                return
            # The detail sub-FFT's rows are the HH rung's own detail
            # band: what a call on that rung's two windows alone reads.
            calls["sub_fft"] = []
            analyze_spans_quality(OWNERS[1], TIMES, VALUES, spans[:2])
            _, alone = calls["sub_fft"]
        assert len(detail) == 1
        assert detail[0].tobytes() == alone.tobytes()
