"""The DWT-based FFT (paper Section IV.B) with significance-driven pruning.

The kernel implements the factorization of eq. 6:

    F_N x = [A B; C D] · [F_{N/2} L ; F_{N/2} H],   [L; H] = W_N x

i.e. one periodic DWT level, two half-length sub-DFTs and a stage of
*modified butterflies* whose twiddle factors are the frequency responses
of the wavelet filters.  ``levels > 1`` recurses the same scheme into the
sub-DFTs (the full binary-tree wavelet packet of Fig. 4); ``levels = 1``
with split-radix sub-DFTs is the configuration whose operation counts the
paper reports, and is the default.

Operation-count conventions (see :mod:`repro.ffts.opcount` and DESIGN.md):
counts model a complex-input transform (the Fast-Lomb packs its two real
workspaces into one complex FFT), the DWT stage is costed as the
lifting/factorized implementation a sensor node would ship, and sub-DFTs
use the closed-form split-radix counts.  Numerical results are exact
(validated against ``numpy.fft``) regardless of the counting model.

Batched execution: :meth:`WaveletFFT.transform_batch` applies the plan to
a dense ``(n_windows, N)`` batch as whole-batch array operations with no
per-row Python iteration, in two halves.  The *sub-band* half
(:meth:`WaveletFFT.subbands_batch`: the DWT stage and both sub-FFTs)
depends only on the geometry — ``n``, basis, ``levels`` and
``sub_backend`` — so every pruning mode of one geometry shares it, and
the Fast-Lomb kernel runs it once over the rows of all the quality
levels in a batch (the detail band only for rows that keep it).  The
*butterfly* half (:meth:`WaveletFFT.butterflies_batch`: twiddle rows
masked at planning, or per-row dynamic thresholds) is the plan's own; it
computes only the bins its caller reads, bin ``k`` from sub-band index
``k mod N/2`` (output pruning, Sorensen & Burrus, IEEE TSP 1993), with
the full-width stage's IEEE operations: the Fast-Lomb kernel asks for
the ``2 * nout`` bins it unpacks, :meth:`WaveletFFT.transform_batch` for
all ``N``.  Temporaries are leased from the current workspace arena.
:meth:`WaveletFFT.transform_batch_with_counts` reports executed
:class:`OpCounts` **per row** (identical to what the sequential path
would have counted for that row).  Design-time data (twiddle pairs,
static masks, whole plans) is memoised in :mod:`~repro.ffts.plancache`.
"""

from __future__ import annotations

import numpy as np

from .._validation import (
    as_1d_complex_array,
    as_2d_complex_array,
    require_power_of_two,
)
from ..errors import ConfigurationError, TransformError
from ..perf.workspace import Scratch, scratch
from ..wavelets.dwt import dwt_level, dwt_level_batch
from ..wavelets.filters import WaveletFilter, get_filter
from . import plancache
from .opcount import (
    COMPLEX_ADD,
    COMPLEX_MULT,
    DYNAMIC_CHECK,
    REAL_SCALED_COMPLEX_MULT,
    OpCounts,
)
from .providers import registry
from .pruning import PruningSpec
from .split_radix import split_radix_counts

__all__ = ["WaveletFFT", "wavelet_fft", "dwt_stage_cost"]

_ZERO_ATOL = 1e-12

#: Cap on the band-drop equalisation gain (bins near N/2 are dead after
#: the drop; boosting them would only amplify noise).
_MAX_EQUALIZER_GAIN = 16.0

#: Fraction of a dynamic mode's candidate terms expected to be pruned:
#: the calibrated data threshold sits at this quantile of the candidate
#: data-magnitude distribution (design-time choice, see core.calibration).
DYNAMIC_DATA_FRACTION = 0.75

#: Factor classification codes used by the op counter.
_FACTOR_ZERO = 0
_FACTOR_AXIS = 1  # purely real or purely imaginary: 2 real mults
_FACTOR_GENERIC = 2  # generic complex: 4 real mults + 2 real adds


def dwt_stage_cost(bank: WaveletFilter) -> tuple[int, int]:
    """(mults, adds) per *complex* DWT output sample for the given basis.

    Haar is costed as the factorized butterfly ``s*(a +/- b)`` (1 mult +
    1 add per real output); longer Daubechies banks as their lifting
    factorization, which needs ``taps + 1`` mults and ``taps`` adds per
    complex output — about half the cost of direct convolution and what
    an optimised embedded implementation would use.
    """
    if bank.length == 2:
        return (2, 2)
    return (bank.length + 1, bank.length)


def _classify_factors(factors: np.ndarray) -> np.ndarray:
    """Map each complex factor to its multiplication-cost class."""
    codes = np.full(factors.shape, _FACTOR_GENERIC, dtype=np.int8)
    real_only = np.abs(factors.imag) <= _ZERO_ATOL
    imag_only = np.abs(factors.real) <= _ZERO_ATOL
    codes[real_only | imag_only] = _FACTOR_AXIS
    codes[real_only & imag_only] = _FACTOR_ZERO
    return codes


def _mult_cost(codes: np.ndarray, active: np.ndarray) -> OpCounts:
    """Total multiplication cost of the active factor applications."""
    generic = int(np.count_nonzero(active & (codes == _FACTOR_GENERIC)))
    axis = int(np.count_nonzero(active & (codes == _FACTOR_AXIS)))
    return COMPLEX_MULT.scaled(generic) + REAL_SCALED_COMPLEX_MULT.scaled(axis)


class WaveletFFT:
    """Plan-and-execute DWT-based FFT with optional pruning.

    Parameters
    ----------
    n:
        Transform size (power of two, >= 4).
    basis:
        Wavelet basis name or :class:`~repro.wavelets.filters.WaveletFilter`;
        the paper evaluates ``"haar"`` (chosen), ``"db2"`` and ``"db4"``.
    levels:
        Depth of the wavelet stage.  1 (default) is the paper's
        configuration — eq. 6 with fast sub-DFTs; larger values recurse
        toward the full packet tree of Fig. 4 (pruning stays at the top).
    pruning:
        A :class:`~repro.ffts.pruning.PruningSpec`; ``None`` means exact.
    sub_backend:
        Innermost sub-DFT numerics: ``"auto"`` (default) dispatches
        through the active execution provider's resolution chain
        (:mod:`repro.ffts.providers`), ``"split-radix"`` pins the
        explicit baseline recursion, and any registered provider name
        (``"numpy"``, ``"scipy"``, ...) pins that provider.  All
        produce ``np.allclose`` results; operation counts always use
        the split-radix closed forms.
    """

    def __init__(
        self,
        n: int,
        basis="haar",
        levels: int = 1,
        pruning: PruningSpec | None = None,
        sub_backend: str = "auto",
    ):
        self.n = require_power_of_two(n, "n")
        if self.n < 4:
            raise ConfigurationError(f"WaveletFFT needs n >= 4, got {n}")
        self.bank = basis if isinstance(basis, WaveletFilter) else get_filter(basis)
        max_levels = int(np.log2(self.n)) - 1
        if not 1 <= levels <= max_levels:
            raise ConfigurationError(
                f"levels must be in [1, {max_levels}] for n={self.n}, got {levels}"
            )
        self.levels = int(levels)
        self.pruning = pruning if pruning is not None else PruningSpec.none()
        if sub_backend not in ("auto", "split-radix"):
            try:
                sub_backend = registry.require_known(sub_backend)
            except Exception:
                raise ConfigurationError(
                    "sub_backend must be 'auto', 'split-radix' or a "
                    f"registered FFT provider name, got {sub_backend!r}"
                ) from None
            registry.get_provider(sub_backend)  # fail now if unavailable
        self.sub_backend = sub_backend

        hl, hh = plancache.twiddle_pair(self.n, self.bank)
        self._hl = hl
        self._hh = hh
        self._hl_codes = _classify_factors(hl)
        self._hh_codes = _classify_factors(hh)

        # Static keep-masks over factor applications (memoised in the plan
        # cache).  Band drop removes the whole HH channel before the
        # twiddle-set fraction is applied to the remaining applications
        # (the paper's Modes combine both).  Dynamic pruning uses the same
        # masks to define its *candidates*: a term is eliminated at run
        # time only when its factor is statically below the set threshold
        # AND its data magnitude is below the calibrated data threshold —
        # a subset of the static victims, hence the lower distortion at a
        # small energy overhead (paper Section VI.C).
        self._hh_active = not self.pruning.band_drop
        self._hl_keep, self._hh_keep = plancache.wavelet_keep_masks(
            self.n, self.bank, self.pruning.band_drop, self.pruning.twiddle_fraction
        )
        self._bin_gains = None
        if self.pruning.band_drop:
            attenuation = 0.5 * np.abs(hl) ** 2
            gains = 1.0 / np.maximum(attenuation, 1.0 / _MAX_EQUALIZER_GAIN)
            gains.flags.writeable = False
            self._bin_gains = gains
        #: Plans with equal keys compute equal :meth:`subbands_batch`
        #: results, whatever their pruning.
        self.subband_key = (
            self.n,
            self.bank.name,
            self.bank.lowpass.tobytes(),
            self.bank.highpass.tobytes(),
            self.levels,
            self.sub_backend,
        )

        self._child: WaveletFFT | None = None
        if self.levels > 1:
            self._child = WaveletFFT(
                self.n // 2,
                basis=self.bank,
                levels=self.levels - 1,
                pruning=None,
                sub_backend=sub_backend,
            )

        # Batched butterflies: the static masks' twiddle rows, dynamic
        # pruning's candidate columns and a static row's executed count.
        hl_live = self._hl_codes != _FACTOR_ZERO
        hh_live = self._hh_codes != _FACTOR_ZERO
        hl_active, hh_active = self._hl_keep & hl_live, self._hh_keep & hh_live
        self._hl_twiddles = np.where(hl_active, hl, 0.0)
        self._hh_twiddles = np.where(hh_active, hh, 0.0)
        self._hl_cand = np.flatnonzero(~self._hl_keep & hl_live)
        self._hh_cand = np.flatnonzero(~self._hh_keep & hh_live)
        self._static_executed = sum(
            self._count_stages(hl_active, hh_active, 0).values(), OpCounts()
        )

    # ------------------------------------------------------------------
    # Numerics
    # ------------------------------------------------------------------

    def _sub_engine(self):
        """The execution provider behind the innermost sub-DFTs.

        ``"auto"`` defers to the registry's resolution chain on every
        call (so long-lived cached plans follow the current execution
        context's provider);
        ``"split-radix"`` maps to the explicit oracle provider and any
        other value is a pinned provider name (validated at planning,
        availability included).
        """
        if self.sub_backend == "auto":
            return registry.active_provider(self.n // 2)
        if self.sub_backend == "split-radix":
            return registry.get_provider("explicit")
        return registry.get_provider(self.sub_backend)

    def _sub_transform(self, x: np.ndarray) -> np.ndarray:
        if self._child is not None:
            return self._child.transform(x)
        return self._sub_engine().fft(x)

    def _sub_transform_batch(self, x, out: np.ndarray) -> np.ndarray:
        """Sub-DFTs of ``x``'s rows, in ``out`` where the engine writes it."""
        if self._child is not None:
            return self._child._execute_batch(x, False, out)[0]
        engine = self._sub_engine()
        if getattr(engine, "supports_out", False):
            return engine.fft_batch(x, out=out)
        return engine.fft_batch(x)

    def _runtime_keep_masks(
        self, l_tiled: np.ndarray, h_tiled: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Dynamic keep-masks and the number of comparisons spent.

        Candidates are the terms whose factor falls below the static set
        threshold (known at design time, so only those pay a check).  A
        candidate survives when its data magnitude proxy ``|re| + |im|``
        reaches the calibrated data threshold; with no calibrated value
        the per-sample quantile at ``DYNAMIC_DATA_FRACTION`` is used.
        """
        spec = self.pruning
        hl_cand = (~self._hl_keep) & (self._hl_codes != _FACTOR_ZERO)
        proxy_l = np.abs(l_tiled.real) + np.abs(l_tiled.imag)
        pieces = [proxy_l[hl_cand]]
        if h_tiled is not None:
            hh_cand = (~self._hh_keep) & (self._hh_codes != _FACTOR_ZERO)
            proxy_h = np.abs(h_tiled.real) + np.abs(h_tiled.imag)
            pieces.append(proxy_h[hh_cand])
        else:
            hh_cand = np.zeros(self.n, dtype=bool)
        proxies = np.concatenate(pieces)
        checks = int(proxies.size)
        if spec.dynamic_threshold is not None:
            threshold = spec.dynamic_threshold
        elif checks:
            threshold = float(np.quantile(proxies, DYNAMIC_DATA_FRACTION))
        else:
            threshold = 0.0
        hl_keep = self._hl_keep | (hl_cand & (proxy_l >= threshold))
        if h_tiled is not None:
            hh_keep = self._hh_keep | (hh_cand & (proxy_h >= threshold))
        else:
            hh_keep = np.zeros(self.n, dtype=bool)
        return hl_keep, hh_keep, checks

    def transform(self, x) -> np.ndarray:
        """Apply the (possibly pruned) transform; returns the spectrum."""
        result, _ = self._execute(x, count=False)
        return result

    def transform_with_counts(self, x) -> tuple[np.ndarray, OpCounts]:
        """Apply the transform and report the real operations performed."""
        result, breakdown = self._execute(x, count=True)
        return result, sum(breakdown.values(), OpCounts())

    def count_breakdown(self, x) -> dict[str, OpCounts]:
        """Per-stage operation counts for the given input."""
        _, breakdown = self._execute(x, count=True)
        return breakdown

    def _execute(
        self, x, count: bool
    ) -> tuple[np.ndarray, dict[str, OpCounts]]:
        arr = as_1d_complex_array(x, "x")
        if arr.size != self.n:
            raise TransformError(
                f"input length {arr.size} does not match plan size {self.n}"
            )
        spec = self.pruning
        xl, xh = dwt_level(arr, self.bank)
        sub_l = self._sub_transform(xl)
        l_tiled = np.tile(sub_l, 2)
        if self._hh_active:
            sub_h = self._sub_transform(xh)
            h_tiled = np.tile(sub_h, 2)
        else:
            h_tiled = None

        if spec.dynamic and not spec.is_exact:
            hl_keep, hh_keep, checks = self._runtime_keep_masks(l_tiled, h_tiled)
        else:
            hl_keep, hh_keep, checks = self._hl_keep, self._hh_keep, 0

        hl_active = hl_keep & (self._hl_codes != _FACTOR_ZERO)
        hh_active = hh_keep & (self._hh_codes != _FACTOR_ZERO)

        out = np.where(hl_active, self._hl, 0.0) * l_tiled
        if h_tiled is not None:
            out = out + np.where(hh_active, self._hh, 0.0) * h_tiled

        breakdown: dict[str, OpCounts] = {}
        if count:
            breakdown = self._count_stages(hl_active, hh_active, checks)
        return out, breakdown

    # ------------------------------------------------------------------
    # Batched numerics
    # ------------------------------------------------------------------

    @property
    def keeps_detail(self) -> bool:
        """Whether the butterflies read the detail (HH) band: no band drop."""
        return self._hh_active

    def transform_batch(self, x) -> np.ndarray:
        """Apply the plan to a ``(n_rows, n)`` batch; returns the spectra.

        Each row is transformed exactly as :meth:`transform` would have
        transformed it (dynamic pruning thresholds are still calibrated
        per row), but the whole batch executes as dense array operations.
        """
        result, _ = self._execute_batch(x, count=False)
        return result

    def transform_batch_with_counts(
        self, x
    ) -> tuple[np.ndarray, tuple[OpCounts, ...]]:
        """Batched transform plus the executed :class:`OpCounts` per row."""
        return self._execute_batch(x, count=True)

    def _runtime_keep_masks_batch(
        self, sub_l: np.ndarray, sub_h: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Per-row dynamic keep-masks over a batch of sub-bands.

        Vectorised version of :meth:`_runtime_keep_masks`: the candidate
        set is static (shared by all rows) while the data threshold is
        the per-row quantile of that row's candidate magnitudes, so every
        row prunes exactly as the sequential path would have.  Candidate
        ``k`` is read from sub-band index ``k mod N/2``.
        """
        spec = self.pruning
        rows = sub_l.shape[0]
        static = (self._hl_keep, self._hh_keep)
        keeps = [np.tile(keep, (rows, 1)) for keep in static]
        bands = [(sub_l, self._hl_cand)]
        if self._hh_active:
            bands.append((sub_h, self._hh_cand))
        proxies = []
        for band, cand in bands:
            taken = np.take(band, cand, axis=1, mode="wrap")
            proxies.append(np.abs(taken.real) + np.abs(taken.imag))
        proxy = np.concatenate(proxies, axis=1)
        checks = int(proxy.shape[1])
        if spec.dynamic_threshold is not None:
            threshold = np.full(rows, spec.dynamic_threshold)
        elif checks:
            threshold = np.quantile(proxy, DYNAMIC_DATA_FRACTION, axis=1)
        else:
            threshold = np.zeros(rows)
        for keep, (_, cand), magnitude in zip(keeps, bands, proxies):
            keep[:, cand] |= magnitude >= threshold[:, None]
        return keeps[0], keeps[1], checks

    def _execute_batch(
        self, x, count: bool, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, tuple[OpCounts, ...]]:
        """All ``n`` bins of every row, into ``out`` (default: fresh)."""
        with scratch() as ws:
            detail_rows = None if self._hh_active else 0
            sub_l, sub_h = self.subbands_batch(x, detail_rows, ws)
            if out is None:
                out = np.empty((sub_l.shape[0], self.n), np.complex128)
            bins = np.arange(self.n)
            counts = self.butterflies_batch(sub_l, sub_h, bins, out, count)
        return out, counts

    def subbands_batch(
        self, x, detail_rows: int | None, ws: Scratch
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The sub-band half of the batched transform.

        One periodic DWT level and the half-length sub-DFTs of its two
        bands (eq. 6's ``F_{N/2} L`` and ``F_{N/2} H``).  It depends on
        nothing but :attr:`subband_key`, so plans that differ only in
        pruning share it.  Returns ``(sub_l, sub_h)``: the
        approximation band's sub-DFT of every row, and the detail
        band's of the first ``detail_rows`` rows (``None``: of every
        row; ``sub_h`` is ``None`` when ``detail_rows`` is 0).  A batch
        whose leading rows keep the HH channel and whose other rows
        drop it thus skips the detail filter and transform of the
        dropped rows.  The bands and sub-DFTs are taken from ``ws``, a
        :class:`~repro.perf.Scratch` the caller closes after reading them.
        """
        arr = as_2d_complex_array(x, "x", width=self.n)
        rows = arr.shape[0]
        detail_rows = rows if detail_rows is None else detail_rows
        shape = (rows + detail_rows, self.n // 2)
        xl, xh = dwt_level_batch(
            arr, self.bank, detail_rows, out=ws.take(shape, np.complex128)
        )
        subs = ws.take(shape, np.complex128)
        sub_l = self._sub_transform_batch(xl, subs[:rows])
        sub_h = None
        if detail_rows:
            sub_h = self._sub_transform_batch(xh, subs[rows:])
        return sub_l, sub_h

    def butterflies_batch(
        self,
        sub_l: np.ndarray,
        sub_h: np.ndarray | None,
        bins: np.ndarray,
        out: np.ndarray,
        count: bool = False,
    ) -> tuple[OpCounts, ...]:
        """The pruning half: eq. 6's modified butterflies at chosen bins.

        ``sub_l`` / ``sub_h`` are :meth:`subbands_batch` output of any
        plan with this plan's :attr:`subband_key`; ``sub_h`` is read
        only when the plan keeps the detail band (:attr:`keeps_detail`).
        Column ``j`` of the complex ``(rows, len(bins))`` ``out`` gets
        spectrum bin ``bins[j]`` of every row, read from sub-band index
        ``bins[j] mod N/2``.  Static pruning multiplies the plan's
        masked twiddle rows, dynamic pruning calibrates each row's data
        threshold.  Returns each row's executed :class:`OpCounts` (from
        the full keep-masks) when ``count``, else ``()``.
        """
        rows = sub_l.shape[0]
        np.take(sub_l, bins, axis=1, out=out, mode="wrap")
        if self.pruning.dynamic and not self.pruning.is_exact:
            hl_keep, hh_keep, checks = self._runtime_keep_masks_batch(
                sub_l, sub_h
            )
            hl_active = hl_keep & (self._hl_codes != _FACTOR_ZERO)[None, :]
            hh_active = hh_keep & (self._hh_codes != _FACTOR_ZERO)[None, :]
            tw_l = np.where(hl_active[:, bins], self._hl[bins], 0.0)
            tw_h = np.where(hh_active[:, bins], self._hh[bins], 0.0)
            per_row = ()
            if count:
                per_row = self._count_rows(hl_active, hh_active, checks)
        else:
            # Static masks: every row shares one mask and one count.
            tw_l, tw_h = self._hl_twiddles[bins], self._hh_twiddles[bins]
            per_row = (self._static_executed,) * rows if count else ()
        np.multiply(tw_l, out, out=out)
        if self._hh_active:
            with scratch() as ws:
                detail = ws.take(out.shape, np.complex128)
                np.take(sub_h, bins, axis=1, out=detail, mode="wrap")
                np.multiply(tw_h, detail, out=detail)
                np.add(out, detail, out=out)
        return per_row

    def _count_rows(
        self, hl_active: np.ndarray, hh_active: np.ndarray, checks: int
    ) -> tuple[OpCounts, ...]:
        """Per-row executed counts from 2-D active masks (dynamic mode)."""
        hl_generic = self._hl_codes == _FACTOR_GENERIC
        hl_axis = self._hl_codes == _FACTOR_AXIS
        hh_generic = self._hh_codes == _FACTOR_GENERIC
        hh_axis = self._hh_codes == _FACTOR_AXIS
        generic = np.count_nonzero(
            hl_active & hl_generic[None, :], axis=1
        ) + np.count_nonzero(hh_active & hh_generic[None, :], axis=1)
        axis = np.count_nonzero(
            hl_active & hl_axis[None, :], axis=1
        ) + np.count_nonzero(hh_active & hh_axis[None, :], axis=1)
        both = np.count_nonzero(hl_active & hh_active, axis=1)
        base = self._dwt_counts() + self._sub_counts()
        if checks:
            base = base + DYNAMIC_CHECK.scaled(checks)
        return tuple(
            base
            + COMPLEX_MULT.scaled(int(g))
            + REAL_SCALED_COMPLEX_MULT.scaled(int(a))
            + COMPLEX_ADD.scaled(int(b))
            for g, a, b in zip(generic, axis, both)
        )

    # ------------------------------------------------------------------
    # Operation accounting
    # ------------------------------------------------------------------

    def _dwt_counts(self) -> OpCounts:
        mults, adds = dwt_stage_cost(self.bank)
        outputs = self.n // 2 if self.pruning.band_drop else self.n
        return OpCounts(mults=mults, adds=adds).scaled(outputs)

    def _sub_counts(self) -> OpCounts:
        per_sub = (
            self._child.static_counts()
            if self._child is not None
            else split_radix_counts(self.n // 2)
        )
        executed = 1 if self.pruning.band_drop else 2
        return per_sub.scaled(executed)

    def _count_stages(
        self, hl_active: np.ndarray, hh_active: np.ndarray, checks: int
    ) -> dict[str, OpCounts]:
        twiddle = _mult_cost(self._hl_codes, hl_active) + _mult_cost(
            self._hh_codes, hh_active
        )
        both = np.count_nonzero(hl_active & hh_active)
        twiddle = twiddle + COMPLEX_ADD.scaled(int(both))
        breakdown = {
            "dwt": self._dwt_counts(),
            "sub_fft": self._sub_counts(),
            "twiddle": twiddle,
        }
        if checks:
            breakdown["pruning_checks"] = DYNAMIC_CHECK.scaled(checks)
        return breakdown

    def static_counts(self) -> OpCounts:
        """Design-time operation counts.

        Exact for static configurations.  For dynamic pruning this is the
        *expected* count: every candidate term (factor statically below
        the set threshold) pays its data check, and the calibrated data
        threshold is expected to keep ``1 - DYNAMIC_DATA_FRACTION`` of
        the candidates alive.
        """
        spec = self.pruning
        counts = self._dwt_counts() + self._sub_counts()
        hl_keep = self._hl_keep & (self._hl_codes != _FACTOR_ZERO)
        hh_keep = self._hh_keep & (self._hh_codes != _FACTOR_ZERO)
        if spec.dynamic and not spec.is_exact:
            hl_cand = (~self._hl_keep) & (self._hl_codes != _FACTOR_ZERO)
            hh_cand = (
                (~self._hh_keep) & (self._hh_codes != _FACTOR_ZERO)
                if self._hh_active
                else np.zeros(self.n, dtype=bool)
            )
            checks = int(np.count_nonzero(hl_cand) + np.count_nonzero(hh_cand))
            counts = counts + DYNAMIC_CHECK.scaled(checks)
            survivors = _mult_cost(self._hl_codes, hl_cand) + _mult_cost(
                self._hh_codes, hh_cand
            )
            counts = counts + survivors.approx_scaled(
                1.0 - DYNAMIC_DATA_FRACTION
            )
        counts = counts + _mult_cost(self._hl_codes, hl_keep)
        counts = counts + _mult_cost(self._hh_codes, hh_keep)
        both = int(np.count_nonzero(hl_keep & hh_keep))
        return counts + COMPLEX_ADD.scaled(both)

    def bin_gains(self) -> np.ndarray | None:
        """Band-drop equalisation gains, or ``None`` when not applicable.

        Dropping the highpass band projects the signal onto the lowpass
        subspace, which attenuates bin *k* by the known deterministic
        factor ``|H_L(k)|^2 / 2`` (``cos^2(pi k / N)`` for Haar).  A
        downstream consumer that reads a subset of bins (the Lomb
        calculator) can divide that droop back out — without this
        equalisation the LF/HF ratio acquires a systematic tilt far
        larger than the paper reports (see DESIGN.md).  Gains are
        clipped where the factor approaches zero (those bins carry no
        information after the drop).  A plan constant, computed once
        when the plan is built and returned read-only.
        """
        return self._bin_gains

    def twiddle_magnitudes(self) -> dict[str, np.ndarray]:
        """Magnitudes of the A/B/C/D diagonals (for Fig. 6 style analyses)."""
        half = self.n // 2
        return {
            "A": np.abs(self._hl[:half]),
            "B": np.abs(self._hh[:half]),
            "C": np.abs(self._hl[half:]),
            "D": np.abs(self._hh[half:]),
        }


def wavelet_fft(
    x,
    basis="haar",
    levels: int = 1,
    pruning: PruningSpec | None = None,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`WaveletFFT`.

    The plan (twiddles, masks, recursion) is resolved through the shared
    :func:`repro.ffts.plancache.wavelet_plan` cache, so repeated calls at
    the same geometry no longer re-derive design-time data.
    """
    arr = as_1d_complex_array(x, "x")
    plan = plancache.wavelet_plan(
        arr.size, basis=basis, levels=levels, pruning=pruning
    )
    return plan.transform(arr)
