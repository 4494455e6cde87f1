"""Unit and property tests for :mod:`repro.wavelets.dwt`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransformError
from repro.wavelets import dwt_level, idwt_level, wavedec, waverec
from repro.wavelets.dwt import dwt_level_batch
from repro.wavelets.filters import get_filter


def _random_signal(rng, n, complex_valued=False):
    x = rng.standard_normal(n)
    if complex_valued:
        x = x + 1j * rng.standard_normal(n)
    return x


class TestSingleLevel:
    def test_haar_matches_hand_computation(self):
        x = np.array([1.0, 3.0, 5.0, 7.0])
        approx, detail = dwt_level(x, "haar")
        s = np.sqrt(2.0)
        np.testing.assert_allclose(approx, [4.0 / s * 1.0, 12.0 / s], rtol=1e-12)
        np.testing.assert_allclose(detail, [-2.0 / s, -2.0 / s], rtol=1e-12)

    def test_output_lengths(self, paper_basis, rng):
        x = _random_signal(rng, 64)
        approx, detail = dwt_level(x, paper_basis)
        assert approx.size == detail.size == 32

    def test_energy_preservation(self, paper_basis, rng):
        x = _random_signal(rng, 128)
        approx, detail = dwt_level(x, paper_basis)
        energy_in = float(x @ x)
        energy_out = float(approx @ approx + detail @ detail)
        assert np.isclose(energy_in, energy_out, rtol=1e-10)

    def test_perfect_reconstruction(self, paper_basis, rng):
        x = _random_signal(rng, 64)
        approx, detail = dwt_level(x, paper_basis)
        np.testing.assert_allclose(idwt_level(approx, detail, paper_basis), x,
                                   atol=1e-10)

    def test_complex_input_transforms_channelwise(self, paper_basis, rng):
        z = _random_signal(rng, 32, complex_valued=True)
        approx, detail = dwt_level(z, paper_basis)
        ar, dr = dwt_level(z.real, paper_basis)
        ai, di = dwt_level(z.imag, paper_basis)
        np.testing.assert_allclose(approx, ar + 1j * ai, atol=1e-12)
        np.testing.assert_allclose(detail, dr + 1j * di, atol=1e-12)

    def test_constant_signal_has_zero_detail(self, paper_basis):
        x = np.full(32, 5.0)
        approx, detail = dwt_level(x, paper_basis)
        np.testing.assert_allclose(detail, 0.0, atol=1e-10)
        np.testing.assert_allclose(approx, 5.0 * np.sqrt(2.0), atol=1e-10)

    def test_odd_length_rejected(self):
        with pytest.raises(TransformError, match="even length"):
            dwt_level(np.ones(5), "haar")

    def test_2d_rejected(self):
        with pytest.raises(TransformError, match="1-D"):
            dwt_level(np.ones((4, 4)), "haar")

    def test_idwt_shape_mismatch_rejected(self):
        with pytest.raises(TransformError):
            idwt_level(np.ones(4), np.ones(8), "haar")


def _gather_filter_downsample(x, taps):
    """Every tap gathered at ``(2n + j) mod m`` — the strided reads'
    reference formulation."""
    m = x.shape[-1]
    base = 2 * np.arange(m // 2)
    acc = np.zeros(
        x.shape[:-1] + (m // 2,), dtype=np.result_type(x.dtype, np.float64)
    )
    for j, tap in enumerate(taps):
        acc = acc + tap * x[..., (base + j) % m]
    return acc


class TestBatchLevel:
    @pytest.mark.parametrize("basis", ["haar", "db2", "db4"])
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_strided_taps_equal_the_gather_byte_for_byte(
        self, rng, basis, complex_valued
    ):
        bank = get_filter(basis)
        x = np.stack(
            [_random_signal(rng, 512, complex_valued) for _ in range(6)]
        )
        x[0, :9] = -0.0  # signed zeros must survive as the gather leaves them
        approx, detail = dwt_level_batch(x, bank)
        assert approx.tobytes() == _gather_filter_downsample(
            x, bank.lowpass
        ).tobytes()
        assert detail.tobytes() == _gather_filter_downsample(
            x, bank.highpass
        ).tobytes()
        for row, a, d in zip(x, approx, detail):
            want_a, want_d = dwt_level(row, bank)
            assert a.tobytes() == want_a.tobytes()
            assert d.tobytes() == want_d.tobytes()


class TestMultiLevel:
    def test_levels_and_shapes(self, rng):
        x = _random_signal(rng, 64)
        dec = wavedec(x, "haar", levels=3)
        assert dec.levels == 3
        assert dec.approx.size == 8
        assert tuple(d.size for d in dec.details) == (8, 16, 32)

    def test_coefficient_vector_length(self, paper_basis, rng):
        x = _random_signal(rng, 128)
        dec = wavedec(x, paper_basis, levels=4)
        assert dec.coefficient_vector().size == 128

    def test_roundtrip(self, paper_basis, rng):
        x = _random_signal(rng, 256)
        dec = wavedec(x, paper_basis, levels=5)
        np.testing.assert_allclose(waverec(dec), x, atol=1e-9)

    def test_energy_by_band_sums_to_total(self, paper_basis, rng):
        x = _random_signal(rng, 64)
        dec = wavedec(x, paper_basis, levels=2)
        assert np.isclose(sum(dec.energy_by_band().values()), float(x @ x),
                          rtol=1e-10)

    def test_band_names(self, rng):
        dec = wavedec(_random_signal(rng, 32), "haar", levels=3)
        assert set(dec.energy_by_band()) == {"A3", "D3", "D2", "D1"}

    def test_invalid_levels_rejected(self):
        with pytest.raises(TransformError):
            wavedec(np.ones(8), "haar", levels=0)

    def test_indivisible_length_rejected(self):
        with pytest.raises(TransformError, match="not divisible"):
            wavedec(np.ones(12), "haar", levels=3)


class TestProperties:
    """Property-based invariants of the periodic DWT."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        log_n=st.integers(min_value=2, max_value=7),
        basis=st.sampled_from(["haar", "db2", "db4"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, seed, log_n, basis):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(1 << log_n)
        approx, detail = dwt_level(x, basis)
        np.testing.assert_allclose(idwt_level(approx, detail, basis), x, atol=1e-9)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        log_n=st.integers(min_value=2, max_value=7),
        basis=st.sampled_from(["haar", "db2", "db4"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_parseval_property(self, seed, log_n, basis):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(1 << log_n)
        approx, detail = dwt_level(x, basis)
        assert np.isclose(
            float(x @ x), float(approx @ approx + detail @ detail), rtol=1e-9
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        basis=st.sampled_from(["haar", "db2", "db4"]),
        scale=st.floats(min_value=-100.0, max_value=100.0,
                        allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, seed, basis, scale):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(32)
        y = rng.standard_normal(32)
        ax, dx = dwt_level(x, basis)
        ay, dy = dwt_level(y, basis)
        a_mix, d_mix = dwt_level(x + scale * y, basis)
        np.testing.assert_allclose(a_mix, ax + scale * ay, atol=1e-7)
        np.testing.assert_allclose(d_mix, dx + scale * dy, atol=1e-7)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        shift=st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=30, deadline=None)
    def test_even_shift_covariance(self, seed, shift):
        """Circular shift by 2s shifts both subbands by s (any basis)."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(32)
        approx, detail = dwt_level(x, "db2")
        a2, d2 = dwt_level(np.roll(x, -2 * shift), "db2")
        np.testing.assert_allclose(a2, np.roll(approx, -shift), atol=1e-9)
        np.testing.assert_allclose(d2, np.roll(detail, -shift), atol=1e-9)
