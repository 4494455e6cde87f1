"""Significance-driven pruning specifications (paper Sections III & V).

Two pruning levers exist, matching the two stages of the modified FFT:

* **Stage 1 — band drop** (paper eq. 7): the highpass (detail) half-band
  of the DWT is identified as less significant (eq. 3 thresholding on
  ``E{|z_k|}``) and its computations — the highpass filtering, the second
  sub-FFT and the B/D twiddle columns — are eliminated.
* **Stage 2 — twiddle-factor pruning**: the modified twiddle factors are
  not unit magnitude, so the smallest ones are dropped.  The paper
  distinguishes three sets by magnitude (Fig. 6): Set1 prunes 20 % of the
  factor applications, Set2 40 %, Set3 60 %.

Each lever can be applied **statically** (design-time masks derived from
expected magnitudes) or **dynamically** (run-time per-sample comparisons;
finer grained, lower distortion, ~10 % energy overhead from the extra
compare instructions).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .._validation import require_in_range
from ..errors import ConfigurationError

__all__ = [
    "PruningSpec",
    "TWIDDLE_SETS",
    "static_twiddle_mask",
    "twiddle_threshold_for_fraction",
]

#: The paper's three pruning sets: fraction of twiddle applications dropped.
TWIDDLE_SETS: dict[int, float] = {1: 0.20, 2: 0.40, 3: 0.60}


@dataclass(frozen=True)
class PruningSpec:
    """Configuration of the approximations applied to the wavelet FFT.

    Attributes
    ----------
    band_drop:
        Drop the top-level highpass band and everything it feeds (eq. 7).
    twiddle_fraction:
        Target fraction of stage-2 twiddle-factor applications to prune
        (0.2 / 0.4 / 0.6 are the paper's Set1-3).
    dynamic:
        Apply the twiddle pruning at run time: each candidate term is kept
        or dropped by comparing ``|factor| * |data|`` against a threshold,
        paying one compare (plus a magnitude estimate) per term.
    dynamic_threshold:
        Absolute threshold used by dynamic pruning.  ``None`` means
        self-calibrating: each transform prunes exactly the target
        fraction of its own terms (the design-time calibration in
        :mod:`repro.core.calibration` replaces this with a fixed value).
    """

    band_drop: bool = False
    twiddle_fraction: float = 0.0
    dynamic: bool = False
    dynamic_threshold: float | None = None

    def __post_init__(self):
        require_in_range(self.twiddle_fraction, 0.0, 0.999, "twiddle_fraction")
        if self.dynamic_threshold is not None and self.dynamic_threshold < 0:
            raise ConfigurationError(
                f"dynamic_threshold must be >= 0, got {self.dynamic_threshold}"
            )
        if self.dynamic_threshold is not None and not self.dynamic:
            raise ConfigurationError(
                "dynamic_threshold given but dynamic pruning is disabled"
            )

    @classmethod
    def none(cls) -> "PruningSpec":
        """No approximation — the exact wavelet-based FFT."""
        return cls()

    @classmethod
    def band_only(cls) -> "PruningSpec":
        """Stage-1 approximation only (the eq. 7 configuration)."""
        return cls(band_drop=True)

    @classmethod
    def paper_mode(cls, twiddle_set: int, dynamic: bool = False) -> "PruningSpec":
        """Band drop combined with one of the paper's twiddle sets (1-3)."""
        if twiddle_set not in TWIDDLE_SETS:
            raise ConfigurationError(
                f"twiddle_set must be one of {sorted(TWIDDLE_SETS)}, got {twiddle_set}"
            )
        return cls(
            band_drop=True,
            twiddle_fraction=TWIDDLE_SETS[twiddle_set],
            dynamic=dynamic,
        )

    @property
    def is_exact(self) -> bool:
        """True when no approximation at all is configured."""
        return not self.band_drop and self.twiddle_fraction == 0.0

    def to_dict(self) -> dict:
        """Plain-data form, as engine configs and fleet wire variants carry it.

        :meth:`from_dict` inverts it.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "PruningSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise ConfigurationError("pruning must be a mapping")
        return cls(**data)

    def with_dynamic_threshold(self, threshold: float) -> "PruningSpec":
        """Return a copy carrying a calibrated dynamic threshold."""
        if not self.dynamic:
            raise ConfigurationError("spec is not dynamic; cannot set threshold")
        return replace(self, dynamic_threshold=float(threshold))

    def describe(self) -> str:
        """Short human-readable mode label used in reports."""
        if self.is_exact:
            return "exact"
        parts = []
        if self.band_drop:
            parts.append("band-drop")
        if self.twiddle_fraction > 0:
            parts.append(f"{int(round(self.twiddle_fraction * 100))}% twiddle")
        suffix = " (dynamic)" if self.dynamic else ""
        return " + ".join(parts) + suffix


def twiddle_threshold_for_fraction(
    magnitudes: np.ndarray, fraction: float
) -> float:
    """Magnitude threshold below which *fraction* of applications fall.

    This is the design-time rule the paper uses to map a desired pruning
    degree (20/40/60 %) to a concrete threshold over the twiddle-factor
    magnitudes (Fig. 6).
    """
    mags = np.asarray(magnitudes, dtype=np.float64).ravel()
    if mags.size == 0:
        raise ConfigurationError("no twiddle magnitudes supplied")
    fraction = require_in_range(fraction, 0.0, 0.999, "fraction")
    if fraction == 0.0:
        return 0.0
    return float(np.quantile(mags, fraction))


def static_twiddle_mask(magnitudes: np.ndarray, fraction: float) -> np.ndarray:
    """Boolean keep-mask pruning exactly ``floor(fraction * size)`` factors.

    The smallest-magnitude factor applications are dropped first; ties are
    broken deterministically by index so repeated runs build identical
    hardware tables.
    """
    mags = np.asarray(magnitudes, dtype=np.float64).ravel()
    fraction = require_in_range(fraction, 0.0, 0.999, "fraction")
    n_prune = int(np.floor(fraction * mags.size))
    keep = np.ones(mags.size, dtype=bool)
    if n_prune > 0:
        order = np.argsort(mags, kind="stable")
        keep[order[:n_prune]] = False
    return keep.reshape(np.shape(magnitudes))
