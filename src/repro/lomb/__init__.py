"""Lomb periodogram substrate: direct, fast (Press-Rybicki) and Welch.

The spectral engine of the PSA system: the direct Lomb method (paper
eq. 1) as reference, Lagrange extirpolation plus the FFT-based Fast-Lomb
used in production, and the sliding-window Welch-Lomb wrapper for
time-frequency monitoring.
"""

from .direct import lomb_frequency_grid, lomb_periodogram
from .extirpolation import extirpolate, extirpolate_batch, extirpolation_weights
from .fast import (
    BLOCK_COSTS,
    FastLomb,
    LombSpectrum,
    get_batch_chunk_windows,
)
from .welch import (
    RecordingWindows,
    WelchLomb,
    WelchLombResult,
    assemble_result,
    iter_windows,
)

__all__ = [
    "BLOCK_COSTS",
    "FastLomb",
    "LombSpectrum",
    "RecordingWindows",
    "WelchLomb",
    "WelchLombResult",
    "assemble_result",
    "extirpolate",
    "extirpolate_batch",
    "extirpolation_weights",
    "get_batch_chunk_windows",
    "iter_windows",
    "lomb_frequency_grid",
    "lomb_periodogram",
]
