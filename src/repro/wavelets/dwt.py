"""Circular (periodic) discrete wavelet transform.

The paper expresses the first stage of its modified FFT as a DWT over the
length-N input window (eq. 4): the signal passes a lowpass/highpass pair
and is downsampled by two, giving the *approximation* (high-energy) and
*detail* (low-energy) half-bands.  Periodic boundary handling keeps the
transform an exactly orthogonal N x N linear map, which the wavelet-domain
FFT factorization requires.

All functions accept real or complex input; complex input is transformed
channel-wise (the filters are real), which is what the packed Fast-Lomb
FFT needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TransformError
from ..perf.workspace import scratch
from .filters import WaveletFilter, get_filter

__all__ = [
    "dwt_level",
    "dwt_level_batch",
    "idwt_level",
    "wavedec",
    "waverec",
    "DecompositionResult",
]


def _resolve(basis) -> WaveletFilter:
    if isinstance(basis, WaveletFilter):
        return basis
    return get_filter(basis)


def _filter_downsample(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Circular correlation with *taps* evaluated at even shifts.

    Computes ``out[n] = sum_j taps[j] * x[(2n + j) mod M]`` for
    ``n = 0 .. M/2 - 1`` without materialising an M x M matrix.
    """
    m = x.size
    acc = np.zeros(m // 2, dtype=np.result_type(x.dtype, np.float64))
    for j, tap in enumerate(taps):
        acc = acc + tap * np.take(x, (2 * np.arange(m // 2) + j) % m)
    return acc


def _filter_downsample_batch(
    x: np.ndarray, taps: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Row-wise :func:`_filter_downsample` over a ``(rows, m)`` batch.

    Writes into ``out``, with ``tmp`` (same shape) holding each tap's
    product.  The tap loop and per-row accumulation order match the 1-D
    routine exactly, so batched rows are bit-identical to sequential
    calls; the first product is added to zero as there (``0 + -0.0`` is
    ``+0.0``).  The first two taps never wrap (``2n + j < m``), so they
    read strided views; later taps gather ``(2n + j) mod m`` into ``tmp``.
    """
    base = 2 * np.arange(x.shape[-1] // 2)
    for j, tap in enumerate(taps):
        if j < 2:
            np.multiply(tap, x[..., j::2], out=tmp)
        else:
            np.take(x, base + j, axis=-1, out=tmp, mode="wrap")
            np.multiply(tap, tmp, out=tmp)
        np.add(out if j else 0.0, tmp, out=out)
    return out


def dwt_level_batch(
    x, basis="haar", detail_rows: int | None = None, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """One periodic DWT level applied row-wise to a ``(rows, m)`` batch.

    Batched counterpart of :func:`dwt_level`, used by the batched
    wavelet-FFT execution path.  Returns ``(approx, detail)``: every
    row's approximation band and the detail band of the first
    ``detail_rows`` rows (``None``: of every row), the only rows the
    highpass filter runs over.  Both are written to ``out`` when given,
    a ``(rows + detail_rows, m // 2)`` array of the result dtype,
    approximation rows first.  The filter temporary is leased from the
    current workspace arena.
    """
    bank = _resolve(basis)
    arr = np.asarray(x)
    if arr.ndim != 2:
        raise TransformError(
            f"dwt_level_batch expects a 2-D batch, got shape {arr.shape}"
        )
    if arr.shape[1] % 2 != 0 or arr.shape[1] < 2:
        raise TransformError(
            f"dwt_level_batch expects even row length >= 2, got {arr.shape[1]}"
        )
    rows, half = arr.shape[0], arr.shape[1] // 2
    detail_rows = rows if detail_rows is None else int(detail_rows)
    if not 0 <= detail_rows <= rows:
        raise TransformError(f"detail_rows must be in [0, {rows}]")
    if out is None:
        dtype = np.result_type(arr.dtype, np.float64)
        out = np.empty((rows + detail_rows, half), dtype=dtype)
    approx, detail = out[:rows], out[rows:]
    with scratch() as ws:
        tmp = ws.take((rows, half), out.dtype)
        _filter_downsample_batch(arr, bank.lowpass, approx, tmp)
        if detail_rows:
            _filter_downsample_batch(
                arr[:detail_rows], bank.highpass, detail, tmp[:detail_rows]
            )
    return approx, detail


def dwt_level(x, basis="haar") -> tuple[np.ndarray, np.ndarray]:
    """One level of periodic DWT: return ``(approx, detail)`` half-bands.

    Parameters
    ----------
    x:
        Input vector of even length (real or complex).
    basis:
        Wavelet basis name or a :class:`WaveletFilter`.

    Returns
    -------
    tuple of arrays
        Lowpass (approximation) and highpass (detail) outputs, each of
        length ``len(x) // 2``.
    """
    bank = _resolve(basis)
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise TransformError(f"dwt_level expects a 1-D signal, got shape {arr.shape}")
    if arr.size % 2 != 0 or arr.size < 2:
        raise TransformError(
            f"dwt_level expects even length >= 2, got {arr.size}"
        )
    approx = _filter_downsample(arr, bank.lowpass)
    detail = _filter_downsample(arr, bank.highpass)
    return approx, detail


def idwt_level(approx, detail, basis="haar") -> np.ndarray:
    """Invert one level of periodic DWT (exact for orthonormal banks)."""
    bank = _resolve(basis)
    lo = np.asarray(approx)
    hi = np.asarray(detail)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise TransformError(
            f"approx/detail must be 1-D with equal shapes, got {lo.shape} and {hi.shape}"
        )
    half = lo.size
    m = 2 * half
    out = np.zeros(m, dtype=np.result_type(lo.dtype, hi.dtype, np.float64))
    positions = (2 * np.arange(half)[:, None] + np.arange(bank.length)[None, :]) % m
    np.add.at(out, positions, lo[:, None] * bank.lowpass[None, :])
    np.add.at(out, positions, hi[:, None] * bank.highpass[None, :])
    return out


@dataclass(frozen=True)
class DecompositionResult:
    """Multi-level (Mallat) DWT decomposition.

    Attributes
    ----------
    approx:
        Final-level approximation band.
    details:
        Detail bands ordered from the *deepest* level to level 1, matching
        the conventional ``[cA_n, cD_n, ..., cD_1]`` layout.
    basis:
        Name of the wavelet basis used.
    """

    approx: np.ndarray
    details: tuple[np.ndarray, ...]
    basis: str

    @property
    def levels(self) -> int:
        """Number of decomposition levels."""
        return len(self.details)

    def coefficient_vector(self) -> np.ndarray:
        """Concatenate all bands into a single length-N vector."""
        return np.concatenate([self.approx, *self.details])

    def energy_by_band(self) -> dict[str, float]:
        """Signal energy (sum of squared magnitudes) per band.

        This is the quantity the paper inspects to classify bands into
        significant / less-significant (Fig. 3): detail-band energies of
        extirpolated RR windows are tiny next to the approximation band.
        """
        energies = {f"A{self.levels}": float(np.sum(np.abs(self.approx) ** 2))}
        for i, band in enumerate(self.details):
            energies[f"D{self.levels - i}"] = float(np.sum(np.abs(band) ** 2))
        return energies


def wavedec(x, basis="haar", levels: int = 1) -> DecompositionResult:
    """Mallat-style multi-level periodic DWT (lowpass chain only)."""
    bank = _resolve(basis)
    arr = np.asarray(x)
    if levels < 1:
        raise TransformError(f"levels must be >= 1, got {levels}")
    if arr.size % (1 << levels) != 0:
        raise TransformError(
            f"signal length {arr.size} not divisible by 2**levels = {1 << levels}"
        )
    details: list[np.ndarray] = []
    current = arr
    for _ in range(levels):
        current, detail = dwt_level(current, bank)
        details.append(detail)
    return DecompositionResult(
        approx=current, details=tuple(reversed(details)), basis=bank.name
    )


def waverec(decomposition: DecompositionResult) -> np.ndarray:
    """Reconstruct the signal from a :func:`wavedec` result."""
    bank = _resolve(decomposition.basis)
    current = decomposition.approx
    for detail in decomposition.details:
        if detail.size != current.size:
            raise TransformError(
                "inconsistent decomposition: detail band of length "
                f"{detail.size} cannot follow approximation of length {current.size}"
            )
        current = idwt_level(current, detail, bank)
    return current
