"""Uniform FFT-backend interface used by the Fast-Lomb kernel.

Both the conventional system (split-radix FFT, Section II.B) and the
proposed system (pruned wavelet FFT, Sections IV-V) plug into Fast-Lomb
through the same protocol:

* ``transform(x)`` — complex spectrum of a length-``n`` vector,
* ``transform_with_counts(x)`` — same plus executed :class:`OpCounts`,
* ``static_counts()`` — design-time operation counts,
* ``transform_batch(x2d)`` — row-wise spectra of a dense
  ``(n_windows, n)`` batch (the windowed-PSA execution engine),
* ``transform_batch_with_counts(x2d)`` — same plus per-row counts.

:class:`~repro.ffts.wavelet_fft.WaveletFFT` already satisfies it; this
module adds the conventional baseline.  Fast-Lomb runs every batch
through the batch methods, and :class:`~repro.lomb.fast.FastLomb`
rejects at construction a kernel that lacks one its path calls
(``transform_batch`` and ``transform_batch_with_counts`` on the packed
path).

Execution vs. accounting: since the provider layer landed, the
*numerics* of :class:`SplitRadixFFT` run on whichever FFT execution
provider the registry resolves (:mod:`repro.ffts.providers` — numpy,
scipy, or the explicit split-radix oracle), while the *operation
counts* always come from the split-radix closed forms.  The optional
``rfft`` / ``rfft_batch`` methods expose the provider's real-input
half-spectrum path; Fast-Lomb uses them to skip the pack/unpack stage
when no spectrum post-processing is in play.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .._validation import (
    as_1d_complex_array,
    as_2d_complex_array,
    require_power_of_two,
)
from ..errors import TransformError
from .opcount import OpCounts
from .providers.base import FFTProvider
from .providers.registry import active_provider, get_provider, require_known
from .split_radix import split_radix_counts

__all__ = ["FFTBackend", "SplitRadixFFT"]


@runtime_checkable
class FFTBackend(Protocol):
    """Structural type of every FFT kernel Fast-Lomb can drive."""

    n: int

    def transform(self, x) -> np.ndarray: ...

    def transform_with_counts(self, x) -> tuple[np.ndarray, OpCounts]: ...

    def static_counts(self) -> OpCounts: ...

    def transform_batch(self, x) -> np.ndarray: ...

    def transform_batch_with_counts(
        self, x
    ) -> tuple[np.ndarray, tuple[OpCounts, ...]]: ...

    # Backends may additionally expose ``supports_out = True`` plus an
    # optional ``out=`` keyword on transform_batch/rfft_batch; callers
    # must check the flag before passing a destination (see
    # :mod:`repro.ffts.providers.base` for the contract).


class SplitRadixFFT:
    """The conventional baseline kernel behind the original PSA system.

    Parameters
    ----------
    n:
        Transform size (power of two).
    use_numpy:
        When True (default) the numerics dispatch through the active
        execution provider (:mod:`repro.ffts.providers` — historically
        this was hard-wired ``numpy.fft``): the result is
        ``np.allclose`` to the explicit split-radix recursion but much
        faster for cohort-scale experiments.  ``use_numpy=False`` pins
        the explicit oracle.  Operation counts always use the
        split-radix closed forms either way.
    provider:
        Optional per-kernel provider pin (a registry name).  ``None``
        defers to the registry's resolution chain (the current
        execution context, ``REPRO_FFT_PROVIDER``, then ``numpy``) on
        every call, so a long-lived plan follows the context it runs
        under.
    """

    def __init__(
        self, n: int, use_numpy: bool = True, provider: str | None = None
    ):
        self.n = require_power_of_two(n, "n")
        self._use_numpy = bool(use_numpy)
        if provider is None and not self._use_numpy:
            provider = "explicit"
        if provider is not None:
            provider = require_known(provider)
            get_provider(provider)  # fail at planning if unavailable
        self.provider = provider
        self._counts = split_radix_counts(self.n)

    def _engine(self) -> FFTProvider:
        if self.provider is not None:
            return get_provider(self.provider)
        return active_provider()

    def transform(self, x) -> np.ndarray:
        arr = as_1d_complex_array(x, "x")
        if arr.size != self.n:
            raise TransformError(
                f"input length {arr.size} does not match plan size {self.n}"
            )
        return self._engine().fft(arr)

    def transform_with_counts(self, x) -> tuple[np.ndarray, OpCounts]:
        return self.transform(x), self._counts

    @property
    def supports_out(self) -> bool:
        """Whether batch calls can honor ``out=`` right now.

        Delegates to the provider the *next* call would resolve (the
        pin chain can change between calls); the explicit oracle and
        third-party providers without the flag report False, and
        callers then simply omit ``out=``.
        """
        return bool(getattr(self._engine(), "supports_out", False))

    def transform_batch(self, x, out: np.ndarray | None = None) -> np.ndarray:
        """Row-wise spectra of a ``(n_windows, n)`` batch.

        Dispatches to the resolved execution provider along axis 1;
        each row matches :meth:`transform`.  ``out=`` is forwarded only
        to providers advertising ``supports_out`` — per the provider
        contract it is advisory, and callers must use the returned
        array.
        """
        arr = as_2d_complex_array(x, "x", width=self.n)
        engine = self._engine()
        if out is not None and getattr(engine, "supports_out", False):
            return engine.fft_batch(arr, out=out)
        return engine.fft_batch(arr)

    def transform_batch_with_counts(
        self, x
    ) -> tuple[np.ndarray, tuple[OpCounts, ...]]:
        """Batched transform plus the (static) per-row operation counts."""
        out = self.transform_batch(x)
        return out, (self._counts,) * out.shape[0]

    def rfft(self, x) -> np.ndarray:
        """Half spectrum (``n//2 + 1`` bins) of one real length-n vector.

        The fused real path of Fast-Lomb: mathematically identical to
        ``transform(x)[: n//2 + 1]`` for real input, at roughly half
        the complex work.  Modelled counts are unchanged — the sensor
        node is costed on the paper's packed complex pipeline.
        """
        arr = np.ascontiguousarray(x, dtype=np.float64)
        if arr.ndim != 1 or arr.size != self.n:
            raise TransformError(
                f"rfft expects a real length-{self.n} vector, got shape "
                f"{arr.shape}"
            )
        return self._engine().rfft(arr)

    def rfft_batch(self, x, out: np.ndarray | None = None) -> np.ndarray:
        """Row-wise half spectra of a real ``(n_windows, n)`` batch.

        ``out=`` follows the same advisory contract as
        :meth:`transform_batch`.
        """
        arr = np.ascontiguousarray(x, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise TransformError(
                f"rfft_batch expects a real (rows, {self.n}) batch, got "
                f"shape {arr.shape}"
            )
        engine = self._engine()
        if out is not None and getattr(engine, "supports_out", False):
            return engine.rfft_batch(arr, out=out)
        return engine.rfft_batch(arr)

    def static_counts(self) -> OpCounts:
        return self._counts
