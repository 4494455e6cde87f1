"""The batched wavelet FFT stage against the full-width stage it replaced.

:meth:`~repro.ffts.wavelet_fft.WaveletFFT.butterflies_batch` multiplies
only the spectrum bins its caller reads, from the sub-bands at index
``k mod N/2``, and :meth:`~repro.lomb.fast.FastLomb._unpack_rows`
equalises and unpacks those bins in place.  Together they must equal,
byte for byte, the full-width butterflies over tiled sub-bands and the
unpack that read their bins — kept here as the reference — with equal
per-row :class:`~repro.ffts.opcount.OpCounts`.  The batched DWT, which
writes into leased buffers and filters only the rows that keep the
detail band, must equal the allocating filter it replaced, signed zeros
included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ffts import plancache
from repro.ffts.opcount import OpCounts
from repro.ffts.pruning import PruningSpec
from repro.ffts.wavelet_fft import DYNAMIC_DATA_FRACTION
from repro.lomb.fast import FastLomb, _read_bins
from repro.perf import execution
from repro.perf.workspace import Scratch, WorkspaceArena
from repro.wavelets.dwt import dwt_level_batch
from repro.wavelets.filters import get_filter

N = 512

#: The unpruned wavelet rung, band drop, the three paper sets, a
#: dynamically pruned set 2 without and with a calibrated threshold, and
#: dynamic twiddle pruning that keeps the HH band.
RUNGS = {
    "full": PruningSpec.none(),
    "band": PruningSpec.band_only(),
    "set1": PruningSpec.paper_mode(1),
    "set2": PruningSpec.paper_mode(2),
    "set3": PruningSpec.paper_mode(3),
    "set2-dynamic": PruningSpec.paper_mode(2, dynamic=True),
    "set2-calibrated": PruningSpec.paper_mode(
        2, dynamic=True
    ).with_dynamic_threshold(0.75),
    "twiddles-dynamic": PruningSpec(twiddle_fraction=0.4, dynamic=True),
}

# ----------------------------------------------------------------------
# Reference: the full-width stage the read-bins design replaced
# ----------------------------------------------------------------------


def _reference_keep_masks(plan, l_tiled, h_tiled):
    spec = plan.pruning
    rows = l_tiled.shape[0]
    hl_cand = (~plan._hl_keep) & (plan._hl_codes != 0)
    proxy_l = np.abs(l_tiled.real) + np.abs(l_tiled.imag)
    pieces = [proxy_l[:, hl_cand]]
    if h_tiled is not None:
        hh_cand = (~plan._hh_keep) & (plan._hh_codes != 0)
        proxy_h = np.abs(h_tiled.real) + np.abs(h_tiled.imag)
        pieces.append(proxy_h[:, hh_cand])
    proxies = np.concatenate(pieces, axis=1)
    checks = int(proxies.shape[1])
    if spec.dynamic_threshold is not None:
        threshold = np.full(rows, spec.dynamic_threshold)
    elif checks:
        threshold = np.quantile(proxies, DYNAMIC_DATA_FRACTION, axis=1)
    else:
        threshold = np.zeros(rows)
    hl_keep = plan._hl_keep[None, :] | (
        hl_cand[None, :] & (proxy_l >= threshold[:, None])
    )
    if h_tiled is not None:
        hh_keep = plan._hh_keep[None, :] | (
            hh_cand[None, :] & (proxy_h >= threshold[:, None])
        )
    else:
        hh_keep = np.zeros((rows, plan.n), dtype=bool)
    return hl_keep, hh_keep, checks


def _reference_butterflies(plan, sub_l, sub_h, count):
    """Full ``(rows, N)`` spectra over tiled sub-bands, and counts."""
    spec = plan.pruning
    rows = sub_l.shape[0]
    l_tiled = np.concatenate([sub_l, sub_l], axis=1)
    h_tiled = None
    if plan.keeps_detail:
        h_tiled = np.concatenate([sub_h, sub_h], axis=1)
    if spec.dynamic and not spec.is_exact:
        hl_keep, hh_keep, checks = _reference_keep_masks(plan, l_tiled, h_tiled)
        hl_active = hl_keep & (plan._hl_codes != 0)[None, :]
        hh_active = hh_keep & (plan._hh_codes != 0)[None, :]
        out = np.where(hl_active, plan._hl[None, :], 0.0) * l_tiled
        if h_tiled is not None:
            out = out + np.where(hh_active, plan._hh[None, :], 0.0) * h_tiled
        per_row = plan._count_rows(hl_active, hh_active, checks) if count else ()
        return out, per_row
    hl_active = plan._hl_keep & (plan._hl_codes != 0)
    hh_active = plan._hh_keep & (plan._hh_codes != 0)
    out = np.where(hl_active, plan._hl, 0.0) * l_tiled
    if h_tiled is not None:
        out = out + np.where(hh_active, plan._hh, 0.0) * h_tiled
    per_row = ()
    if count:
        one = sum(plan._count_stages(hl_active, hh_active, 0).values(), OpCounts())
        per_row = (one,) * rows
    return out, per_row


def _reference_unpack(gains, spectrum, nout):
    """Data and window spectra of bins ``1..nout`` of full spectra."""
    ndim = spectrum.shape[1]
    z_pos = spectrum[:, 1 : nout + 1]
    z_neg = spectrum[:, ndim - 1 : ndim - nout - 1 : -1]
    if gains is not None:
        z_pos = z_pos * gains[1 : nout + 1]
        z_neg = z_neg * gains[ndim - 1 : ndim - nout - 1 : -1]
    conj_neg = np.conjugate(z_neg)
    data_ft = np.add(z_pos, conj_neg)
    np.multiply(data_ft, 0.5, out=data_ft)
    win_ft = np.subtract(z_pos, conj_neg)
    np.multiply(win_ft, -0.5j, out=win_ft)
    return data_ft, win_ft


def _reference_filter(x, taps):
    """The allocating batch filter: ``acc = acc + tap * taken``."""
    m = x.shape[-1]
    base = 2 * np.arange(m // 2)
    acc = np.zeros(
        x.shape[:-1] + (m // 2,), dtype=np.result_type(x.dtype, np.float64)
    )
    for j, tap in enumerate(taps):
        taken = x[..., j::2] if j < 2 else x[..., (base + j) % m]
        acc = acc + tap * taken
    return acc


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def _packed_rows(seed: int, rows: int, zeros: float) -> np.ndarray:
    """Finite complex rows over several magnitudes, seeded with ±0.0.

    ``zeros`` is the chance of each part being a signed zero: at 1.0
    every candidate magnitude ties the self-calibrated threshold.
    """
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 3, size=(rows, 1))
    x = (rng.normal(size=(rows, N)) + 1j * rng.normal(size=(rows, N))) * scale
    for part in (x.real, x.imag):
        hit = rng.random((rows, N)) < zeros
        part[hit] = np.where(rng.random(int(hit.sum())) < 0.5, -0.0, 0.0)
    return x


def _check_stage(rung, basis, levels, rows, nout, seed, zeros, count):
    plan = plancache.wavelet_plan(
        N, basis=basis, levels=levels, pruning=RUNGS[rung],
        sub_backend="numpy",
    )
    analyser = FastLomb(workspace_size=N, backend=plan)
    x = _packed_rows(seed, rows, zeros)
    sub_l, sub_h = plan.subbands_batch(
        x, None if plan.keeps_detail else 0, Scratch()
    )

    want, want_counts = _reference_butterflies(plan, sub_l, sub_h, count)
    want_data, want_win = _reference_unpack(plan.bin_gains(), want, nout)

    bins = _read_bins(N, nout)
    with execution(arena=WorkspaceArena()):
        spectra = np.empty((rows, bins.size), np.complex128)
        counts = plan.butterflies_batch(sub_l, sub_h, bins, spectra, count)
        assert spectra.tobytes() == want[:, bins].tobytes()
        data_ft = np.empty((rows, nout), np.complex128)
        win_ft = np.empty((rows, nout), np.complex128)
        analyser._unpack_rows(spectra, data_ft, win_ft)
    assert data_ft.tobytes() == want_data.tobytes()
    assert win_ft.tobytes() == want_win.tobytes()
    assert counts == want_counts

    # The whole spectrum is the same code at every bin.
    full, full_counts = plan.transform_batch_with_counts(x)
    assert full.tobytes() == want.tobytes()
    assert full_counts == _reference_butterflies(plan, sub_l, sub_h, True)[1]


class TestReadBinsStage:
    @settings(max_examples=100, deadline=None)
    @given(
        rung=st.sampled_from(sorted(RUNGS)),
        basis=st.sampled_from(["haar", "db2", "db4"]),
        levels=st.sampled_from([1, 2]),
        rows=st.integers(1, 20),
        nout=st.sampled_from([1, 94, 95, N // 2 - 1]),
        seed=st.integers(0, 2**31),
        zeros=st.sampled_from([0.0, 0.1, 0.9, 1.0]),
        count=st.booleans(),
    )
    def test_equals_full_width_stage(
        self, rung, basis, levels, rows, nout, seed, zeros, count
    ):
        _check_stage(rung, basis, levels, rows, nout, seed, zeros, count)

    @pytest.mark.parametrize("rung", ["full", "set3", "set2-dynamic"])
    def test_a_full_chunk_equals_full_width_stage(self, rung):
        _check_stage(rung, "haar", 1, 257, 95, 5, 0.1, True)


class TestLeasedDwt:
    @settings(max_examples=60, deadline=None)
    @given(
        basis=st.sampled_from(["haar", "db2", "db4"]),
        rows=st.integers(1, 20),
        detail=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
        complex_valued=st.booleans(),
    )
    def test_equals_allocating_filter(
        self, basis, rows, detail, seed, complex_valued
    ):
        bank = get_filter(basis)
        x = _packed_rows(seed, rows, 0.3)
        if not complex_valued:
            x = x.real.copy()
        x[0, :9] = -0.0
        detail_rows = int(detail * rows)
        want_a = _reference_filter(x, bank.lowpass)
        want_d = _reference_filter(x[:detail_rows], bank.highpass)
        for arena in (None, WorkspaceArena()):
            with execution(arena=arena):
                approx, band = dwt_level_batch(x, bank, detail_rows)
            assert approx.tobytes() == want_a.tobytes()
            assert band.tobytes() == want_d.tobytes()
        out = np.full((rows + detail_rows, N // 2), np.nan, want_a.dtype)
        approx, band = dwt_level_batch(x, bank, detail_rows, out=out)
        assert out.tobytes() == np.concatenate([want_a, want_d]).tobytes()
