"""FFT substrate: baselines, the DWT-based FFT, pruning and op accounting.

Exposes the conventional kernels the paper compares against (split radix,
radix-2, direct DFT), the wavelet-domain FFT of Section IV with its two
pruning stages, the operation-count framework behind Fig. 5 and the
energy model, and the multi-provider execution layer
(:mod:`repro.ffts.providers`) that decouples the analysis model from
the numerical engine running it.
"""

from .backends import FFTBackend, SplitRadixFFT
from .providers import FFTProvider, available_providers, get_provider
from .dft import direct_dft, direct_dft_counts
from .opcount import (
    COMPLEX_ADD,
    COMPLEX_MULT,
    DYNAMIC_CHECK,
    REAL_SCALED_COMPLEX_MULT,
    OpCounts,
)
from .plancache import (
    clear_plan_caches,
    plan_cache_stats,
    split_radix_plan,
    wavelet_plan,
)
from .pruning import (
    TWIDDLE_SETS,
    PruningSpec,
    static_twiddle_mask,
    twiddle_threshold_for_fraction,
)
from .radix2 import bit_reverse_permutation, radix2_counts, radix2_fft
from .split_radix import split_radix_counts, split_radix_fft, split_radix_fft_batch
from .wavelet_fft import WaveletFFT, dwt_stage_cost, wavelet_fft

__all__ = [
    "COMPLEX_ADD",
    "COMPLEX_MULT",
    "DYNAMIC_CHECK",
    "FFTBackend",
    "FFTProvider",
    "REAL_SCALED_COMPLEX_MULT",
    "OpCounts",
    "SplitRadixFFT",
    "PruningSpec",
    "available_providers",
    "get_provider",
    "TWIDDLE_SETS",
    "WaveletFFT",
    "bit_reverse_permutation",
    "clear_plan_caches",
    "direct_dft",
    "direct_dft_counts",
    "dwt_stage_cost",
    "plan_cache_stats",
    "radix2_counts",
    "radix2_fft",
    "split_radix_counts",
    "split_radix_fft",
    "split_radix_fft_batch",
    "split_radix_plan",
    "static_twiddle_mask",
    "twiddle_threshold_for_fraction",
    "wavelet_fft",
    "wavelet_plan",
]
