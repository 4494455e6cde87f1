"""Fast-Lomb periodogram (Press-Rybicki) with a pluggable FFT kernel.

The direct Lomb method costs O(N_samples x N_freq) trigonometric sums.
Press & Rybicki's algorithm [10 in the paper] extirpolates the samples
onto a uniform workspace, evaluates the four required sums with FFTs and
combines them per frequency.  The paper's PSA system fixes the workspace
at N = 512, packs the data and window workspaces into **one complex FFT**
and swaps that FFT between the conventional split-radix kernel and the
pruned wavelet kernel — which is exactly what this class does through the
:class:`~repro.ffts.backends.FFTBackend` protocol.

Operation accounting covers every pipeline block (extirpolation, moment
computation, FFT, spectrum unpacking, Lomb combination) so the platform
model can reproduce the Fig. 1(b) energy breakdown.

Two execution paths produce the same spectra:

* :meth:`FastLomb.periodogram` — one window at a time (the sequential
  oracle the batched path is tested against),
* :meth:`FastLomb.periodogram_batch` — many windows at once.  Windows
  are grouped by frequency-grid length, extirpolated with one
  scatter-add over a flattened ``(window, cell)`` space, transformed
  through the backend's ``transform_batch`` and combined as dense
  ``(n_windows, nout)`` array operations.  Backends without a batch
  entry point fall back to sequential per-window calls.

Only the FFT stage depends on the backend, which is all a quality level
changes (the paper's Fig. 1a).  So one batch can mix levels: an optional
``owners`` argument names each window's FFT owner — the analyser of its
ladder rung — and the batch runs every other stage once over all rows
and the FFT once per owner over that owner's rows.

Two execution fast paths sit on top (both produce ``np.allclose``
spectra and identical modelled op counts):

* the **fused real path** (``fused_real``): plain-FFT backends expose
  ``rfft`` / ``rfft_batch`` — resolved through the execution-provider
  layer (:mod:`repro.ffts.providers`) — and the two real workspaces
  skip the pack/complex-FFT/unpack stage entirely,
* the **matrix path** (:meth:`FastLomb.periodogram_batch_matrix`):
  uniform window layouts enter the dense kernel as zero-copy strided
  views without per-window slicing or padding copies.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .._validation import as_1d_float_array, require_power_of_two
from ..envpins import CHUNK_ENV_VAR as _CHUNK_ENV_VAR
from ..envpins import chunk_env_pin
from ..errors import ConfigurationError, SignalError
from ..ffts.backends import FFTBackend
from ..ffts.opcount import OpCounts
from ..ffts.plancache import split_radix_plan
from ..perf.profiler import span as _profile_span
from ..perf.workspace import carve, scratch
from .extirpolation import DEFAULT_ORDER, extirpolate, extirpolate_batch

__all__ = [
    "FastLomb",
    "LombSpectrum",
    "BLOCK_COSTS",
    "get_batch_chunk_windows",
    "set_batch_chunk_windows",
]

#: Fallback windows-per-sub-batch of the batched execution path when the
#: host cannot be probed (the PR 1 value, measured on one development
#: machine).  The effective value is resolved per host by
#: :func:`get_batch_chunk_windows`; chunking keeps the ``(rows, N)``
#: workspaces and extirpolation intermediates cache-resident — a 24 h
#: Holter run in one monolithic batch is ~35 % slower than chunks of
#: this size.
BATCH_CHUNK_WINDOWS = 256

_chunk_override: int | None = None
_chunk_tuned: dict[int, int] = {}


def set_batch_chunk_windows(value: int | None) -> None:
    """Pin the batched sub-batch size for this process.

    ``None`` clears the pin and re-enables per-host auto-tuning.  The
    fleet engine pins every worker to the parent's resolved value so a
    cohort runs with one consistent chunk size; results never depend on
    it (batch rows are independent).
    """
    global _chunk_override
    if value is None:
        _chunk_override = None
        return
    value = int(value)
    if value < 1:
        raise ConfigurationError(
            f"batch chunk size must be >= 1, got {value}"
        )
    _chunk_override = value


def get_chunk_override() -> int | None:
    """The explicit per-process pin, if any (used to save/restore it)."""
    return _chunk_override


@contextmanager
def pinned_execution(provider: str | None, chunk_windows: int | None):
    """Install a provider/chunk pin pair for the calling block.

    The one save-set-restore implementation every execution layer that
    runs under resolved settings (the engine facade, the fleet runner's
    in-process paths) shares: the previous pins are restored on exit,
    so pinned blocks never leak state into code that did not ask for
    them.
    """
    from ..ffts.providers.registry import (
        get_default_provider_name,
        set_default_provider,
    )

    previous_provider = get_default_provider_name()
    previous_chunk = get_chunk_override()
    set_default_provider(provider)
    set_batch_chunk_windows(chunk_windows)
    try:
        yield
    finally:
        set_default_provider(previous_provider)
        set_batch_chunk_windows(previous_chunk)


def get_batch_chunk_windows(workspace_size: int = 512) -> int:
    """Effective windows-per-sub-batch for this host and workspace size.

    Resolution order: an explicit :func:`set_batch_chunk_windows` pin,
    the ``REPRO_BATCH_CHUNK_WINDOWS`` environment variable, then the
    lazily-run per-host auto-tuner
    (:func:`repro.fleet.tuning.autotune_chunk_windows`, memoised per
    workspace size), falling back to :data:`BATCH_CHUNK_WINDOWS`.
    """
    if _chunk_override is not None:
        return _chunk_override
    env = chunk_env_pin()
    if env is not None:
        return env
    tuned = _chunk_tuned.get(workspace_size)
    if tuned is None:
        from ..fleet.tuning import autotune_chunk_windows

        tuned = autotune_chunk_windows(workspace_size).chunk_windows
        _chunk_tuned[workspace_size] = tuned
    return tuned

#: Per-unit operation costs of the non-FFT pipeline blocks.  Divisions and
#: square roots are expanded to 4 multiplications each, the usual cost of
#: the iterative routines on a multiplier-only embedded core.
BLOCK_COSTS = {
    # Per input sample: position scaling for both workspaces plus two
    # order-4 Lagrange spreads (weight products, division, accumulate).
    "extirpolation_per_sample": OpCounts(mults=26, adds=9),
    # Per input sample: running mean and variance accumulation.
    "moments_per_sample": OpCounts(mults=1, adds=3),
    # Per frequency bin: unpacking the two real spectra from the packed
    # complex FFT output (two complex adds + two halvings each).
    "unpack_per_bin": OpCounts(mults=4, adds=4),
    # Per frequency bin: hypotenuse, tau rotation, numerators/denominators
    # and the final normalisation (incl. 3 sqrt + 4 div at 4 mults each).
    "lomb_combine_per_bin": OpCounts(mults=24, adds=9),
}


@dataclass(frozen=True)
class LombSpectrum:
    """Result of one Fast-Lomb evaluation.

    Attributes
    ----------
    frequencies:
        Probe frequencies in Hz (uniform grid ``m * df``).
    power:
        Periodogram values; normalisation per the ``scaling`` option of
        :class:`FastLomb`.
    mean, variance:
        Sample moments of the analysed values.
    n_samples:
        Number of irregular samples in the window.
    duration:
        Window time span in seconds.
    counts:
        Executed operation counts (``None`` unless requested).
    """

    frequencies: np.ndarray
    power: np.ndarray
    mean: float
    variance: float
    n_samples: int
    duration: float
    counts: OpCounts | None = None

    def band_power(self, low: float, high: float) -> float:
        """Integrated power in ``[low, high)`` Hz (rectangle rule)."""
        if high <= low:
            raise SignalError(f"empty band [{low}, {high})")
        mask = (self.frequencies >= low) & (self.frequencies < high)
        if self.frequencies.size < 2:
            raise SignalError("spectrum too short for band integration")
        df = float(self.frequencies[1] - self.frequencies[0])
        return float(np.sum(self.power[mask]) * df)


@dataclass(frozen=True)
class _WindowPlan:
    """Prepared per-window quantities awaiting (batched) extirpolation."""

    n: int
    duration: float
    df: float
    nout: int
    mean: float
    variance: float
    centered: np.ndarray
    pos_data: np.ndarray
    pos_window: np.ndarray


def _row_means(x: np.ndarray, ns: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Mean of each row's first ``ns[i]`` samples, written into ``out``.

    Bit-identical to the sequential path's 1-D ``x[i, :ns[i]].mean()``:
    numpy sums each row of a matrix whose rows are contiguous along
    axis 1 with the same pairwise summation as the 1-D call (only rows
    that are not contiguous — a boolean column selection comes back
    F-ordered — would round differently).  So an equal-length group
    (every uniform recording) takes one reduction, and ragged rows are
    reduced per sample count over exactly their own samples: padding
    never enters a sum, and the centred samples — dynamic-pruning
    decisions included — stay bit-identical.
    """
    if (ns == x.shape[1]).all():
        return x.mean(axis=1, out=out)
    for n in set(ns.tolist()):
        group = ns == n
        out[group] = x[group, :n].sum(axis=1) / n
    return out


#: Settings every FFT owner of a batch must share with the analyser that
#: runs the batch's other stages (they fix the frequency grid, the
#: extirpolation and the combine's normalisation).
_SHARED_WITH_OWNERS = (
    "workspace_size", "oversample", "max_frequency", "order", "scaling",
)


def _owner_runs(owners: list, ranks: np.ndarray) -> list[tuple]:
    """``(owner, lo, hi)`` row ranges of a chunk whose rows sort by owner."""
    cuts = np.flatnonzero(ranks[1:] != ranks[:-1]) + 1
    edges = [0, *cuts.tolist(), ranks.size]
    return [
        (owners[ranks[lo]], lo, hi) for lo, hi in zip(edges[:-1], edges[1:])
    ]


class FastLomb:
    """Press-Rybicki Fast-Lomb analyser with a fixed-size FFT workspace.

    Parameters
    ----------
    workspace_size:
        FFT length N (power of two); the paper uses 512.
    oversample:
        Frequency oversampling factor (``df = 1 / (oversample * T)``).
        The default 2.0 reproduces the paper's geometry: a 2-minute
        window of ~117 beats extirpolates onto the first ~256 cells of
        the 512-cell workspace (Fig. 3a).
    max_frequency:
        Highest probe frequency in Hz; ``None`` extends the grid to the
        pseudo-Nyquist limit allowed by the workspace.
    order:
        Extirpolation (Lagrange) order, 4 as in Numerical Recipes.
    backend:
        FFT kernel; defaults to the conventional
        :class:`~repro.ffts.backends.SplitRadixFFT`.  Pass a
        :class:`~repro.ffts.wavelet_fft.WaveletFFT` to get the paper's
        proposed system.
    scaling:
        ``"standard"`` — classic Lomb normalisation by ``2 * variance``;
        ``"denormalized"`` — multiplied back by ``2 * variance / n``
        (the paper's Welch de-normalisation, suitable for averaging).
    fused_real:
        The fused real-input path: the two real workspaces go through
        the backend's ``rfft`` / ``rfft_batch`` instead of being packed
        into one complex FFT and unpacked — algebraically the same
        spectra (``np.allclose``) at roughly half the complex work,
        with no pack/unpack stage.  ``None`` (default) enables it
        automatically when the backend exposes the rfft entry points
        and performs no spectrum post-processing (pruned wavelet
        backends equalise the full packed spectrum, so they keep the
        packed path).  Modelled operation counts are unchanged either
        way — the sensor node is costed on the paper's packed pipeline.
    """

    def __init__(
        self,
        workspace_size: int = 512,
        oversample: float = 2.0,
        max_frequency: float | None = None,
        order: int = DEFAULT_ORDER,
        backend: FFTBackend | None = None,
        scaling: str = "standard",
        fused_real: bool | None = None,
    ):
        self.workspace_size = require_power_of_two(workspace_size, "workspace_size")
        if oversample < 1.0:
            raise ConfigurationError(
                f"oversample must be >= 1, got {oversample}"
            )
        self.oversample = float(oversample)
        if max_frequency is not None and max_frequency <= 0:
            raise ConfigurationError(
                f"max_frequency must be positive, got {max_frequency}"
            )
        self.max_frequency = max_frequency
        self.order = int(order)
        if backend is None:
            # Shared, cached plan: repeated FastLomb construction reuses
            # the same stateless split-radix kernel.
            backend = split_radix_plan(self.workspace_size)
        if backend.n != self.workspace_size:
            raise ConfigurationError(
                f"backend size {backend.n} != workspace size {self.workspace_size}"
            )
        self.backend = backend
        if scaling not in ("standard", "denormalized"):
            raise ConfigurationError(
                f"scaling must be 'standard' or 'denormalized', got {scaling!r}"
            )
        self.scaling = scaling
        rfft_capable = hasattr(self.backend, "rfft") and hasattr(
            self.backend, "rfft_batch"
        )
        if fused_real is None:
            fused_real = rfft_capable and self._backend_gains() is None
        elif fused_real:
            if not rfft_capable:
                raise ConfigurationError(
                    "fused_real requires a backend with rfft/rfft_batch"
                )
            if self._backend_gains() is not None:
                raise ConfigurationError(
                    "fused_real is incompatible with spectrum-equalising "
                    "(band-drop) backends"
                )
        self.fused_real = bool(fused_real)

    # ------------------------------------------------------------------

    def _grid(self, duration: float, n_samples: int) -> tuple[float, int]:
        df = 1.0 / (self.oversample * duration)
        # The extirpolation grid has ndim*df samples per second; frequencies
        # beyond its Nyquist limit (ndim/2 bins) would alias, so a window
        # that is too long for the fixed workspace must be rejected rather
        # than silently truncated — the paper's 2-minute windows with
        # N = 512 keep the full 0-0.4 Hz HRV range well inside the limit.
        limit = self.workspace_size // 2 - 1
        if self.max_frequency is None:
            nyquist_like = 0.5 * n_samples / duration
            nout = min(int(np.floor(nyquist_like / df)), limit)
        else:
            nout = int(np.floor(self.max_frequency / df))
            if nout > limit:
                raise SignalError(
                    f"max_frequency {self.max_frequency} Hz needs {nout} bins "
                    f"but a {self.workspace_size}-point workspace over a "
                    f"{duration:.0f} s window supports only {limit}; use "
                    "shorter (Welch) windows or a larger workspace"
                )
        if nout < 1:
            raise SignalError("window too short: empty frequency grid")
        return df, nout

    def _window_inputs(
        self, times, values, validate: bool
    ) -> tuple[np.ndarray, np.ndarray, float, float, int]:
        """Validate one window and derive its grid geometry.

        Shared prefix of the sequential and batched paths, so the two
        can never drift apart: returns ``(t, x, duration, df, nout)``.
        ``validate=False`` skips the array checks for callers (the Welch
        driver) that already validated the parent recording.
        """
        if validate:
            t = as_1d_float_array(times, "times", min_length=4)
            x = as_1d_float_array(values, "values", min_length=4)
            if t.size != x.size:
                raise SignalError(
                    f"times and values must match, got {t.size} and {x.size}"
                )
            if np.any(np.diff(t) <= 0):
                raise SignalError("times must be strictly increasing")
        else:
            t = np.asarray(times, dtype=np.float64)
            x = np.asarray(values, dtype=np.float64)
        duration = float(t[-1] - t[0])
        if duration <= 0:
            raise SignalError("window duration must be positive")
        df, nout = self._grid(duration, t.size)
        return t, x, duration, df, nout

    def _prepare_window(self, times, values) -> "_WindowPlan":
        """Per-window work of the sequential path, up to extirpolation.

        Validation, grid geometry, sample moments and workspace
        positions; the batched path performs the same steps vectorised
        over a whole window group in :meth:`_periodogram_group`.
        """
        t, x, duration, df, nout = self._window_inputs(
            times, values, validate=True
        )
        n = t.size

        mean = float(x.mean())
        variance = float(np.var(x, ddof=1))
        if variance <= 0:
            raise SignalError("window has zero variance")
        centered = x - mean

        ndim = self.workspace_size
        fac = ndim * df
        pos_data = (t - t[0]) * fac
        pos_data = np.clip(pos_data, 0.0, np.nextafter(float(ndim), 0.0))
        pos_window = np.mod(2.0 * pos_data, float(ndim))
        return _WindowPlan(
            n=n,
            duration=duration,
            df=df,
            nout=nout,
            mean=mean,
            variance=variance,
            centered=centered,
            pos_data=pos_data,
            pos_window=pos_window,
        )

    def periodogram(
        self, times, values, count_ops: bool = False
    ) -> LombSpectrum:
        """Fast-Lomb periodogram of one window of irregular samples."""
        plan = self._prepare_window(times, values)
        n = plan.n
        df, nout = plan.df, plan.nout
        mean, variance = plan.mean, plan.variance
        duration = plan.duration

        ndim = self.workspace_size
        wk1 = extirpolate(plan.centered, plan.pos_data, ndim, self.order)
        wk2 = extirpolate(np.ones(n), plan.pos_window, ndim, self.order)

        m = np.arange(1, nout + 1)
        if self.fused_real:
            # Fused real path: for real workspaces the packed complex
            # FFT plus unpack is algebraically rfft(wk1)[m] and
            # rfft(wk2)[m] directly; counts stay the modelled packed
            # pipeline (static for a plain-FFT backend).
            data_ft = self.backend.rfft(wk1)[m]
            win_ft = self.backend.rfft(wk2)[m]
            fft_counts = self.backend.static_counts() if count_ops else None
        else:
            packed = wk1 + 1j * wk2
            if count_ops:
                spectrum, fft_counts = self.backend.transform_with_counts(
                    packed
                )
            else:
                spectrum = self.backend.transform(packed)
                fft_counts = None

            z_pos = spectrum[m]
            z_neg = spectrum[ndim - m]
            # Band-drop equalisation: a pruned wavelet backend advertises
            # the known per-bin attenuation of the dropped band; dividing
            # it back out at the read bins removes the systematic
            # spectral tilt.
            gains = self._backend_gains()
            if gains is not None:
                z_pos = z_pos * gains[m]
                z_neg = z_neg * gains[ndim - m]
            data_ft = 0.5 * (z_pos + np.conj(z_neg))
            win_ft = -0.5j * (z_pos - np.conj(z_neg))

        cx, sx = data_ft.real, -data_ft.imag
        c2, s2 = win_ft.real, -win_ft.imag
        hypo = np.maximum(np.hypot(c2, s2), 1e-30)
        hc2wt = 0.5 * c2 / hypo
        hs2wt = 0.5 * s2 / hypo
        cwt = np.sqrt(np.clip(0.5 + hc2wt, 0.0, None))
        swt = np.sign(hs2wt) * np.sqrt(np.clip(0.5 - hc2wt, 0.0, None))
        den_c = 0.5 * n + hc2wt * c2 + hs2wt * s2
        den_s = n - den_c
        den_c = np.maximum(den_c, 1e-30)
        den_s = np.maximum(den_s, 1e-30)
        cterm = (cwt * cx + swt * sx) ** 2 / den_c
        sterm = (cwt * sx - swt * cx) ** 2 / den_s
        raw = cterm + sterm
        if self.scaling == "standard":
            power = raw / (2.0 * variance)
        else:
            power = raw / n

        counts = None
        if count_ops:
            counts = sum(
                self._non_fft_counts(n, nout).values(), fft_counts
            )
        return LombSpectrum(
            frequencies=df * m,
            power=power,
            mean=mean,
            variance=variance,
            n_samples=n,
            duration=duration,
            counts=counts,
        )

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------

    def _batch_capable(self, count_ops: bool) -> bool:
        """Whether the dense kernel can drive this analyser's backend.

        The fused real path only calls ``rfft_batch`` (guaranteed at
        construction); the packed path needs ``transform_batch`` and,
        when counting, ``transform_batch_with_counts`` too.
        """
        if self.fused_real:
            return True
        names = ["transform_batch"]
        if count_ops:
            names.append("transform_batch_with_counts")
        return all(hasattr(self.backend, name) for name in names)

    def _owner_ranks(
        self, owners, n: int
    ) -> tuple[list["FastLomb"], np.ndarray]:
        """Distinct FFT owners of an *n*-window batch, and each window's.

        ``owners`` is ``None`` (this analyser owns every window) or one
        :class:`FastLomb` per window.  An owner contributes only the FFT
        stage — its backend, fused-real choice, band-drop gains and
        operation counts; every other stage runs once on this analyser
        over all rows.  So each owner must share this analyser's
        workspace size, oversample, max frequency, order and scaling,
        and one that does not raises :class:`ConfigurationError` before
        any kernel work.  Returns ``(distinct owners, ranks)``, where
        ``ranks[i]`` indexes window ``i``'s owner.
        """
        if owners is None:
            return [self], np.zeros(n, dtype=np.intp)
        owners = list(owners)
        if len(owners) != n:
            raise ConfigurationError(
                f"{len(owners)} FFT owners for {n} windows"
            )
        index: dict[int, int] = {}
        distinct: list[FastLomb] = []
        for owner in owners:
            if id(owner) not in index:
                self._check_owner(owner)
                index[id(owner)] = len(distinct)
                distinct.append(owner)
        ranks = np.fromiter(
            (index[id(owner)] for owner in owners), dtype=np.intp, count=n
        )
        return distinct, ranks

    def _check_owner(self, owner) -> None:
        if not isinstance(owner, FastLomb):
            raise ConfigurationError(
                f"FFT owners must be FastLomb analysers, got "
                f"{type(owner).__name__}"
            )
        for name in _SHARED_WITH_OWNERS:
            mine, theirs = getattr(self, name), getattr(owner, name)
            if theirs != mine:
                raise ConfigurationError(
                    f"FFT owner {name} {theirs!r} differs from the "
                    f"analyser's {mine!r}"
                )

    def periodogram_batch(
        self,
        windows,
        count_ops: bool = False,
        validate: bool = True,
        owners=None,
    ) -> list[LombSpectrum]:
        """Fast-Lomb periodograms of many windows in one batched pass.

        Parameters
        ----------
        windows:
            Sequence of ``(times, values)`` pairs, one per window.
        count_ops:
            Attach executed per-window :class:`OpCounts`.
        validate:
            Per-window array validation; pass ``False`` only when the
            caller has already validated the parent recording (the Welch
            driver does).
        owners:
            Optional per-window FFT owners, one :class:`FastLomb` per
            window (``None``: this analyser owns them all).  Window
            ``i`` runs the FFT stage on ``owners[i]`` and every other
            stage here, so one call serves windows of several quality
            levels, and each window's spectrum and counts equal those
            of a batch call on ``owners[i]`` alone, byte for byte.

        Windows are grouped by frequency-grid length ``nout`` (windows of
        different durations probe different grids) and each group runs as
        dense ``(n_windows, N)`` array operations: one flattened
        scatter-add extirpolation, one FFT call per owner and a fully
        vectorised Lomb combine.  Results are returned in input order
        and match :meth:`periodogram` window-for-window (same spectra,
        same operation counts).

        When some owner's backend does not implement the batch entry
        points, every window is driven through its owner's sequential
        :meth:`periodogram` instead.
        """
        pairs = list(windows)
        distinct, ranks = self._owner_ranks(owners, len(pairs))
        if not all(owner._batch_capable(count_ops) for owner in distinct):
            return [
                distinct[rank].periodogram(t, x, count_ops=count_ops)
                for rank, (t, x) in zip(ranks.tolist(), pairs)
            ]
        arrays: list[tuple[np.ndarray, np.ndarray]] = []
        metas: list[tuple[int, float, float, int]] = []
        groups: dict[int, list[int]] = {}
        for i, (times, values) in enumerate(pairs):
            t, x, duration, df, nout = self._window_inputs(
                times, values, validate
            )
            arrays.append((t, x))
            metas.append((t.size, duration, df, nout))
            groups.setdefault(nout, []).append(i)
        results: list[LombSpectrum | None] = [None] * len(pairs)
        chunk_windows = get_batch_chunk_windows(self.workspace_size)
        by_rank = ranks.tolist()
        for nout, indices in groups.items():
            # Rows of one owner sit together, so every chunk makes one
            # FFT call per owner over a contiguous row range; rows are
            # independent, so their order inside a group changes no
            # result (and the sort is stable).
            indices.sort(key=by_rank.__getitem__)
            # Bounded sub-batches keep the dense intermediates inside the
            # CPU caches; one monolithic multi-hour batch is measurably
            # slower than cache-sized chunks (rows are independent, so
            # chunking cannot change any result).
            for lo in range(0, len(indices), chunk_windows):
                chunk = indices[lo : lo + chunk_windows]
                spectra = self._periodogram_group(
                    [arrays[i] for i in chunk],
                    [metas[i] for i in chunk],
                    nout,
                    count_ops,
                    _owner_runs(distinct, ranks[chunk]),
                )
                for i, spectrum in zip(chunk, spectra):
                    results[i] = spectrum
        return results

    def periodogram_batch_matrix(
        self, times, values, count_ops: bool = False, owners=None
    ) -> list[LombSpectrum]:
        """Batched Fast-Lomb over a dense, equal-length window matrix.

        The zero-copy fast path for uniformly-sampled recordings:
        ``times`` / ``values`` are ``(n_windows, L)`` matrices —
        typically strided ``sliding_window_view`` views produced by
        :func:`repro.lomb.welch.uniform_window_matrix` — and rows go
        straight into the same dense kernel as
        :meth:`periodogram_batch` without per-window slicing, padding
        or copying.  Results match the pair-based path row-for-row
        (same spectra, same operation counts); the caller is expected
        to have validated the parent recording.  ``owners`` assigns
        per-row FFT owners exactly as in :meth:`periodogram_batch`.
        """
        t_mat = np.asarray(times, dtype=np.float64)
        x_mat = np.asarray(values, dtype=np.float64)
        if t_mat.ndim != 2 or t_mat.shape != x_mat.shape:
            raise SignalError(
                "times and values must be matching 2-D matrices, got "
                f"shapes {t_mat.shape} and {x_mat.shape}"
            )
        rows, width = t_mat.shape
        if rows == 0:
            return []
        if width < 4:
            raise SignalError("windows too short: need at least 4 samples")
        distinct, ranks = self._owner_ranks(owners, rows)
        # Same capability fallback as periodogram_batch.
        if not all(owner._batch_capable(count_ops) for owner in distinct):
            return [
                distinct[rank].periodogram(
                    t_mat[i], x_mat[i], count_ops=count_ops
                )
                for i, rank in enumerate(ranks.tolist())
            ]
        durations = t_mat[:, -1] - t_mat[:, 0]
        if np.any(durations <= 0):
            raise SignalError("window duration must be positive")
        dfs, nouts = self._grid_rows(durations, width)
        metas = [
            (width, float(durations[i]), float(dfs[i]), int(nouts[i]))
            for i in range(rows)
        ]
        ns = np.full(rows, width, dtype=np.int64)
        results: list[LombSpectrum | None] = [None] * rows
        chunk_windows = get_batch_chunk_windows(self.workspace_size)
        for nout in np.unique(nouts):
            indices = np.flatnonzero(nouts == nout)
            indices = indices[np.argsort(ranks[indices], kind="stable")]
            for lo in range(0, indices.size, chunk_windows):
                chunk = indices[lo : lo + chunk_windows]
                # Ascending contiguous runs keep the strided views intact
                # (the overwhelmingly common case: one frequency grid
                # and one owner for the whole recording); anything else
                # falls back to a gather copy of just those rows.
                if (np.diff(chunk) == 1).all():
                    sel: slice | np.ndarray = slice(
                        int(chunk[0]), int(chunk[-1]) + 1
                    )
                else:
                    sel = chunk
                spectra = self._periodogram_group_dense(
                    t_mat[sel],
                    x_mat[sel],
                    ns[sel],
                    [metas[i] for i in chunk],
                    int(nout),
                    count_ops,
                    _owner_runs(distinct, ranks[chunk]),
                )
                for i, spectrum in zip(chunk, spectra):
                    results[i] = spectrum
        return results

    def _grid_rows(
        self, durations: np.ndarray, n_samples: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`_grid` over per-row window durations.

        Same formulas, applied elementwise, so every row gets exactly
        the grid the scalar path would have derived for it.
        """
        dfs = 1.0 / (self.oversample * durations)
        limit = self.workspace_size // 2 - 1
        if self.max_frequency is None:
            nyquist_like = 0.5 * n_samples / durations
            nouts = np.minimum(
                np.floor(nyquist_like / dfs).astype(np.int64), limit
            )
        else:
            nouts = np.floor(self.max_frequency / dfs).astype(np.int64)
            if np.any(nouts > limit):
                raise SignalError(
                    f"max_frequency {self.max_frequency} Hz needs "
                    f"{int(nouts.max())} bins but a "
                    f"{self.workspace_size}-point workspace supports only "
                    f"{limit}; use shorter (Welch) windows or a larger "
                    "workspace"
                )
        if np.any(nouts < 1):
            raise SignalError("window too short: empty frequency grid")
        return dfs, nouts

    def _periodogram_group(
        self,
        arrays: list[tuple[np.ndarray, np.ndarray]],
        metas: list[tuple[int, float, float, int]],
        nout: int,
        count_ops: bool,
        runs: list[tuple["FastLomb", int, int]],
    ) -> list[LombSpectrum]:
        """Batched pipeline for windows sharing one frequency-grid length.

        Ragged windows are right-padded to the longest beat count in the
        group; padding enters the extirpolation as zero-valued samples
        (contributing nothing) and the Lomb combine uses per-row sample
        counts, so padding never leaks into the results.  The dense
        kernel itself lives in :meth:`_periodogram_group_dense`, which
        the zero-copy uniform-recording path
        (:meth:`periodogram_batch_matrix`) enters directly without this
        padding copy.
        """
        rows = len(arrays)
        ns = np.array([meta[0] for meta in metas], dtype=np.int64)
        max_n = int(ns.max())
        # Pad width quantised up to a multiple of 64 columns: results
        # are already pad-width-independent (the per-row slices below
        # and the lengths masks keep padding out of every reduction —
        # the same invariant that makes fleet shard merging exact), and
        # a handful of stable widths keeps the workspace arena keyed on
        # a few trailing shapes instead of one per distinct
        # longest-window beat count.
        pad_n = ((max_n + 63) // 64) * 64
        # The padded matrices are pure kernel inputs (read, never
        # escaping into results), so they lease from the active arena;
        # the dense kernel below has released all of its own borrows by
        # the time this scratch closes.
        with scratch() as ws:
            t_pad, x_pad = ws.take_block(2, (rows, pad_n), zero=True)
            for i, (t, x) in enumerate(arrays):
                k = t.size
                t_pad[i, :k] = t
                x_pad[i, :k] = x
            return self._periodogram_group_dense(
                t_pad, x_pad, ns, metas, nout, count_ops, runs
            )

    def _periodogram_group_dense(
        self,
        t_pad: np.ndarray,
        x_pad: np.ndarray,
        ns: np.ndarray,
        metas: list[tuple[int, float, float, int]],
        nout: int,
        count_ops: bool,
        runs: list[tuple["FastLomb", int, int]],
    ) -> list[LombSpectrum]:
        """Dense ``(rows, max_n)`` kernel shared by both batch entries.

        ``t_pad`` / ``x_pad`` may be strided views (the
        ``sliding_window_view`` fast path) — they are read, never
        written.  Window means are row reductions over each window's
        own samples, bit-identical to the sequential path's 1-D
        ``x.mean()``, so the centred samples — and hence dynamic-pruning
        decisions and operation counts — match it exactly; variances
        are re-derived from the centred batch (they only scale the
        output power).

        ``runs`` are the ``(owner, lo, hi)`` row ranges of each FFT
        owner (:meth:`_owner_ranks`).  Moments, workspace positions,
        both extirpolations and the Lomb combine run once over all
        rows; only the FFT stage (:meth:`_fft_rows`) runs per owner,
        over that owner's rows.  Every stage is row-independent, so a
        row's result does not depend on which rows share its batch.

        Every intermediate (masks, workspaces, FFT outputs, the dozen
        Lomb-combine temporaries) is leased from the active workspace
        arena when one is installed, and each formula is staged through
        ``out=`` ufunc calls that reproduce the original expression's
        operation structure exactly — same operations, same operand
        order, same rounding — so arena-on and arena-off results are
        bit-for-bit identical.  Only ``power`` and the per-spectrum
        frequency grids are freshly allocated: they escape into the
        returned :class:`LombSpectrum` objects.
        """
        ndim = self.workspace_size
        rows, max_n = t_pad.shape
        dfs = np.array([meta[2] for meta in metas])
        with scratch() as ws:
            with _profile_span("prepare"):
                means, variances = ws.take_block(2, (rows,))
                _row_means(x_pad, ns, means)
                valid, invalid = ws.take_block(2, (rows, max_n), np.bool_)
                centered, pos_data, pos_window, valid_f = ws.take_block(
                    4, (rows, max_n)
                )
                np.less(np.arange(max_n)[None, :], ns[:, None], out=valid)
                np.subtract(x_pad, means[:, None], out=centered)
                np.logical_not(valid, out=invalid)
                np.copyto(centered, 0.0, where=invalid)
                # Per-row dot products over the exact (unpadded) slices:
                # a padded reduction would round differently depending
                # on the batch's pad width, making results depend on how
                # windows were grouped into batches — which would break
                # the fleet engine's bit-identical shard merging.
                for i in range(rows):
                    c = centered[i, : ns[i]]
                    variances[i] = c @ c
                np.divide(variances, ns - 1, out=variances)
                if np.any(variances <= 0):
                    raise SignalError("window has zero variance")
                # Padded slots sit at t = 0 and clip to position 0; the
                # lengths mask keeps them out of the workspaces
                # regardless.
                np.subtract(t_pad, t_pad[:, :1], out=pos_data)
                np.multiply(pos_data, (ndim * dfs)[:, None], out=pos_data)
                np.clip(
                    pos_data, 0.0, np.nextafter(float(ndim), 0.0),
                    out=pos_data,
                )
                np.multiply(pos_data, 2.0, out=pos_window)
                np.mod(pos_window, float(ndim), out=pos_window)
                np.copyto(valid_f, valid)
            wk1, wk2 = ws.take_block(2, (rows, ndim))
            with _profile_span("extirpolate"):
                extirpolate_batch(
                    centered, pos_data, ndim, self.order, lengths=ns, out=wk1
                )
                extirpolate_batch(
                    valid_f, pos_window, ndim, self.order, lengths=ns, out=wk2
                )

            # Bins 1..nout of the data and window spectra: each owner
            # fills its own rows, and the combine reads every row.
            data_ft, win_ft = ws.take_block(2, (rows, nout), np.complex128)
            fft_counts: list[OpCounts] = []
            row_owners: list[FastLomb] = []
            with _profile_span("fft"):
                for owner, lo, hi in runs:
                    counts = owner._fft_rows(
                        ws,
                        wk1[lo:hi],
                        wk2[lo:hi],
                        data_ft[lo:hi],
                        win_ft[lo:hi],
                        count_ops,
                    )
                    if count_ops:
                        fft_counts.extend(counts)
                        row_owners.extend([owner] * (hi - lo))

            with _profile_span("lomb_combine"):
                (
                    sx,
                    s2,
                    hypo,
                    hc2wt,
                    hs2wt,
                    cwt,
                    swt,
                    sgn,
                    prod,
                    den_c,
                    den_s,
                    cterm,
                    sterm,
                ) = ws.take_block(13, (rows, nout))
                cx = data_ft.real
                np.negative(data_ft.imag, out=sx)
                c2 = win_ft.real
                np.negative(win_ft.imag, out=s2)
                np.hypot(c2, s2, out=hypo)
                np.maximum(hypo, 1e-30, out=hypo)
                np.multiply(c2, 0.5, out=hc2wt)
                np.divide(hc2wt, hypo, out=hc2wt)
                np.multiply(s2, 0.5, out=hs2wt)
                np.divide(hs2wt, hypo, out=hs2wt)
                np.add(hc2wt, 0.5, out=cwt)
                np.clip(cwt, 0.0, None, out=cwt)
                np.sqrt(cwt, out=cwt)
                np.subtract(0.5, hc2wt, out=swt)
                np.clip(swt, 0.0, None, out=swt)
                np.sqrt(swt, out=swt)
                np.sign(hs2wt, out=sgn)
                np.multiply(sgn, swt, out=swt)
                nn = ns[:, None].astype(np.float64)
                half_nn = 0.5 * nn
                np.multiply(hc2wt, c2, out=prod)
                np.add(half_nn, prod, out=den_c)
                np.multiply(hs2wt, s2, out=prod)
                np.add(den_c, prod, out=den_c)
                np.subtract(nn, den_c, out=den_s)
                np.maximum(den_c, 1e-30, out=den_c)
                np.maximum(den_s, 1e-30, out=den_s)
                np.multiply(cwt, cx, out=cterm)
                np.multiply(swt, sx, out=prod)
                np.add(cterm, prod, out=cterm)
                np.square(cterm, out=cterm)
                np.divide(cterm, den_c, out=cterm)
                np.multiply(cwt, sx, out=sterm)
                np.multiply(swt, cx, out=prod)
                np.subtract(sterm, prod, out=sterm)
                np.square(sterm, out=sterm)
                np.divide(sterm, den_s, out=sterm)
                raw = cterm
                np.add(cterm, sterm, out=raw)
                # The power matrix escapes into the returned spectra, so
                # it is the one combine output allocated fresh.
                power = np.empty((rows, nout))
                if self.scaling == "standard":
                    np.divide(raw, 2.0 * variances[:, None], out=power)
                else:
                    np.divide(raw, nn, out=power)

            m = np.arange(1, nout + 1)
            spectra: list[LombSpectrum] = []
            for i, meta in enumerate(metas):
                n, duration, df, _nout = meta
                counts = None
                if count_ops:
                    counts = sum(
                        row_owners[i]._non_fft_counts(n, nout).values(),
                        fft_counts[i],
                    )
                spectra.append(
                    LombSpectrum(
                        frequencies=df * m,
                        power=power[i],
                        mean=float(means[i]),
                        variance=float(variances[i]),
                        n_samples=n,
                        duration=duration,
                        counts=counts,
                    )
                )
        return spectra

    def _fft_rows(
        self,
        ws,
        wk1: np.ndarray,
        wk2: np.ndarray,
        data_ft: np.ndarray,
        win_ft: np.ndarray,
        count_ops: bool,
    ) -> tuple[OpCounts, ...] | None:
        """The dense kernel's FFT stage over the rows this analyser owns.

        The one stage that depends on the backend.  Writes bins
        ``1..nout`` of the data and window spectra of ``wk1`` / ``wk2``
        into the ``(rows, nout)`` complex ``data_ft`` / ``win_ft`` and
        returns the per-row FFT :class:`OpCounts`, or ``None`` unless
        counting.  Temporaries lease from ``ws``.
        """
        rows, nout = data_ft.shape
        ndim = self.workspace_size
        # Providers advertise out= support; anything else (the explicit
        # oracle, the pruned wavelet kernel, third-party providers with
        # the pre-out= signature) keeps its fresh-allocation behaviour.
        backend_out = getattr(self.backend, "supports_out", False)
        if self.fused_real:
            # Fused real path (see :meth:`periodogram`): two batched
            # rffts instead of pack + complex FFT + unpack.
            half = ndim // 2 + 1
            for wk, ft in ((wk1, data_ft), (wk2, win_ft)):
                if backend_out:
                    spectrum = self.backend.rfft_batch(
                        wk, out=ws.take((rows, half), np.complex128)
                    )
                else:
                    spectrum = self.backend.rfft_batch(wk)
                np.copyto(ft, spectrum[:, 1 : nout + 1])
            if count_ops:
                return (self.backend.static_counts(),) * rows
            return None
        packed = ws.take((rows, ndim), np.complex128)
        packed.real[:] = wk1
        packed.imag[:] = wk2
        fft_counts = None
        if count_ops:
            spectrum, fft_counts = self.backend.transform_batch_with_counts(
                packed
            )
        elif backend_out:
            spectrum = self.backend.transform_batch(
                packed, out=ws.take((rows, ndim), np.complex128)
            )
        else:
            spectrum = self.backend.transform_batch(packed)
        # z_pos covers bins 1..nout; z_neg their mirrors ndim-1 down to
        # ndim-nout — both as views.
        z_pos = spectrum[:, 1 : nout + 1]
        z_neg = spectrum[:, ndim - 1 : ndim - nout - 1 : -1]
        gains = self._backend_gains()
        if gains is not None:
            zp, zn = ws.take_block(2, (rows, nout), np.complex128)
            np.multiply(z_pos, gains[1 : nout + 1], out=zp)
            np.multiply(
                z_neg, gains[ndim - 1 : ndim - nout - 1 : -1], out=zn
            )
            z_pos, z_neg = zp, zn
        conj_neg = ws.take((rows, nout), np.complex128)
        np.conjugate(z_neg, out=conj_neg)
        np.add(z_pos, conj_neg, out=data_ft)
        np.multiply(data_ft, 0.5, out=data_ft)
        np.subtract(z_pos, conj_neg, out=win_ft)
        np.multiply(win_ft, -0.5j, out=win_ft)
        return fft_counts

    # ------------------------------------------------------------------

    def _backend_gains(self) -> np.ndarray | None:
        gains_method = getattr(self.backend, "bin_gains", None)
        if gains_method is None:
            return None
        return gains_method()

    def _non_fft_counts(self, n_samples: int, nout: int) -> dict[str, OpCounts]:
        counts = {
            "extirpolation": BLOCK_COSTS["extirpolation_per_sample"].scaled(
                n_samples
            ),
            "moments": BLOCK_COSTS["moments_per_sample"].scaled(n_samples),
            "unpack": BLOCK_COSTS["unpack_per_bin"].scaled(nout),
            "lomb_combine": BLOCK_COSTS["lomb_combine_per_bin"].scaled(nout),
        }
        if self._backend_gains() is not None:
            # Two complex bins per output frequency, 2 real mults each.
            counts["equalizer"] = OpCounts(mults=4).scaled(nout)
        return counts

    def count_breakdown(self, times, values) -> dict[str, OpCounts]:
        """Per-block operation counts for one window (Fig. 1b input)."""
        t = as_1d_float_array(times, "times", min_length=4)
        duration = float(t[-1] - t[0])
        _df, nout = self._grid(duration, t.size)
        breakdown = dict(self._non_fft_counts(t.size, nout))
        spectrum_counts = self.backend.static_counts()
        breakdown["fft"] = spectrum_counts
        return breakdown

    def static_counts(self, n_samples: int, duration: float) -> OpCounts:
        """Design-time per-window cost for a nominal window shape."""
        _df, nout = self._grid(float(duration), int(n_samples))
        non_fft = self._non_fft_counts(int(n_samples), nout)
        return sum(non_fft.values(), self.backend.static_counts())
