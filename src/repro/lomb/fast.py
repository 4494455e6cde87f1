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
* :meth:`FastLomb.periodogram_spans` — the one batch entry: a
  recording's sample arrays plus ``(lo, hi)`` window spans, the unit of
  work every execution mode hands the kernel.  Each chunk of rows
  gathers its windows into padded ``(rows, pad)`` blocks with one
  indexed copy and runs one dense pass whatever their frequency-grid
  lengths: both workspaces of every row are extirpolated with one
  scatter-add over a flattened ``(row, cell)`` space (two for a chunk
  of more than half the chunk size), transformed through the backend's
  batch entry points and combined as dense ``(n_windows, nout)`` array
  operations at the chunk's widest grid, of which each row keeps its
  own bins.  A backend must implement the batch entry points its path
  calls; :class:`FastLomb` rejects one that does not at construction.
  It returns the columns it computed, one :class:`LombBatch`.

Only the FFT stage depends on the backend, which is all a quality level
changes (the paper's Fig. 1a).  So one batch can mix levels: an optional
``owners`` argument names each window's FFT owner — the analyser of its
ladder rung — and the batch runs every other stage once over all rows
and the FFT stage per owner over that owner's rows.  Within the FFT
stage, owners whose wavelet plans share a geometry share its sub-band
half too (:meth:`~repro.ffts.wavelet_fft.WaveletFFT.subbands_batch`:
the DWT and both sub-FFTs), so it runs once over all of their rows;
only the butterflies, band-drop gains and unpacking run per owner.

Plain-FFT backends take the **fused real path**, with ``np.allclose``
spectra and identical modelled op counts: they expose ``rfft`` /
``rfft_batch`` — resolved through the execution-provider layer
(:mod:`repro.ffts.providers`) — and the two real workspaces skip the
pack/complex-FFT/unpack stage entirely.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import astuple, dataclass

import numpy as np

from .._validation import (
    SpanBounds,
    as_1d_float_array,
    require_power_of_two,
    span_bounds,
)
from ..envpins import chunk_env_pin
from ..errors import ConfigurationError, SignalError
from ..ffts.backends import FFTBackend
from ..ffts.opcount import OpCounts
from ..ffts.plancache import split_radix_plan
from ..perf.context import current_execution
from ..perf.profiler import span as _profile_span
from ..perf.workspace import carve, scratch
from .extirpolation import DEFAULT_ORDER, extirpolate, scatter_rows

__all__ = [
    "FastLomb",
    "LombBatch",
    "LombSpectrum",
    "BLOCK_COSTS",
    "get_batch_chunk_windows",
]

#: Windows per sub-batch of the batched execution path wherever neither
#: a config, the execution context nor ``REPRO_BATCH_CHUNK_WINDOWS``
#: pins one (``perfbench`` pins the same value).  Chunking keeps the
#: ``(rows, N)`` workspaces and extirpolation intermediates
#: cache-resident: a 24 h Holter run in one monolithic batch is ~35 %
#: slower than chunks of this size, and chunks of 512 or 1024 rows read
#: 25–40 % slower on a 2-CPU host, where 64 and 128 fell inside this
#: size's run-to-run spread.
BATCH_CHUNK_WINDOWS = 256


def get_batch_chunk_windows() -> int:
    """Windows per sub-batch the batched kernel runs right now.

    The current execution context's ``chunk_windows``
    (:func:`repro.perf.execution`), then the
    ``REPRO_BATCH_CHUNK_WINDOWS`` environment variable, then
    :data:`BATCH_CHUNK_WINDOWS`.
    """
    pinned = current_execution().chunk_windows
    if pinned is not None:
        return pinned
    env = chunk_env_pin()
    return BATCH_CHUNK_WINDOWS if env is None else env


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


def _count_rows(counts) -> np.ndarray:
    """``(rows, 3)`` int64 matrix of mults, adds and compares."""
    return np.array(list(map(astuple, counts)), np.int64).reshape(-1, 3)


@dataclass(frozen=True, eq=False)
class LombBatch(Sequence):
    """Fast-Lomb results of many windows: the columns the kernel computed.

    Row ``i`` keeps ``power[i, :nout[i]]`` (the rest is padding) on the
    grid ``df[i] * (1 .. nout[i])``, and its window's ``mean``,
    ``variance``, ``n_samples``, ``duration`` and, unless ``None``, its
    ``counts`` row of mults, adds and compares.  A read-only sequence: a
    slice is a batch, and a row is the :class:`LombSpectrum`
    :meth:`FastLomb.periodogram` returns for the window, byte for byte.
    """

    power: np.ndarray
    nout: np.ndarray
    df: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    n_samples: np.ndarray
    duration: np.ndarray
    counts: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.nout)

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            columns = self.columns().items()
            return LombBatch(**{k: c if c is None else c[index] for k, c in columns})
        nout, counts = int(self.nout[index]), self.counts
        return LombSpectrum(
            frequencies=self.df[index] * np.arange(1, nout + 1),
            power=self.power[index, :nout],
            mean=self.mean[index].item(),
            variance=self.variance[index].item(),
            n_samples=self.n_samples[index].item(),
            duration=self.duration[index].item(),
            counts=None if counts is None else OpCounts(*counts[index].tolist()),
        )

    def columns(self) -> dict:
        """The batch's arrays by field name (its wire form)."""
        return dict(vars(self))

    @classmethod
    def stack(cls, spectra=()) -> "LombBatch":
        """One batch of :class:`LombSpectrum` rows on ``df * (1 .. n)`` grids."""
        spectra = list(spectra)
        nout = np.array([s.power.size for s in spectra], dtype=np.int64)
        power = np.zeros((nout.size, nout.max(initial=0)))
        for row, spectrum in zip(power, spectra):
            row[: spectrum.power.size] = spectrum.power
        counts = None
        if spectra and spectra[0].counts is not None:
            counts = _count_rows(s.counts for s in spectra)
        return cls(
            power,
            nout,
            np.array([s.frequencies[0] for s in spectra], dtype=np.float64),
            np.array([s.mean for s in spectra], dtype=np.float64),
            np.array([s.variance for s in spectra], dtype=np.float64),
            np.array([s.n_samples for s in spectra], dtype=np.int64),
            np.array([s.duration for s in spectra], dtype=np.float64),
            counts,
        )

    @classmethod
    def concat(cls, batches) -> "LombBatch":
        """The rows of several batches, in order, as one batch."""
        batches = list(batches)
        if len(batches) == 1:
            return batches[0]
        width = max(batch.power.shape[1] for batch in batches)
        parts = [
            dict(batch.columns(), power=np.pad(
                batch.power, ((0, 0), (0, width - batch.power.shape[1]))
            ))
            for batch in batches
        ]
        return cls(**{
            name: None if column is None
            else np.concatenate([part[name] for part in parts])
            for name, column in parts[0].items()
        })


def _row_means(x: np.ndarray, ns: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Mean of each row's first ``ns[i]`` samples, written into ``out``.

    Bit-identical to the sequential path's 1-D ``x[i, :ns[i]].mean()``:
    numpy sums each row of a matrix whose rows are contiguous along
    axis 1 with the same pairwise summation as the 1-D call (only rows
    that are not contiguous — a boolean column selection comes back
    F-ordered — would round differently).  So rows are reduced per
    sample count, each group over exactly its own samples (an
    equal-length layout in one reduction): padding never enters a sum,
    and the centred samples — dynamic-pruning decisions included —
    stay bit-identical.
    """
    for n in set(ns.tolist()):
        group = ns == n
        out[group] = x[group, :n].sum(axis=1) / n
    return out


def _check_span_samples(t, x, lo, hi) -> None:
    """Raise the oracle's :class:`SignalError` for the first bad span.

    :meth:`FastLomb.periodogram` refuses a non-finite time, a non-finite
    value and a non-increasing time, in that order.  Only the spans'
    range is read: fleet tasks hand every shard the whole recording.
    """
    first, last = int(lo.min()), int(hi.max())
    seg_t, seg_x = t[first:last], x[first:last]
    finite_t, finite_x = np.isfinite(seg_t), np.isfinite(seg_x)
    increasing = seg_t[1:] > seg_t[:-1]
    if finite_t.all() and finite_x.all() and increasing.all():
        return
    starts, stops = lo - first, hi - first
    checks = (
        (~finite_t, stops, "times contains non-finite values"),
        (~finite_x, stops, "values contains non-finite values"),
        # The step from sample j to j + 1 belongs to a span holding both.
        (~increasing, stops - 1, "times must be strictly increasing"),
    )
    failing = np.zeros((len(checks), lo.size), dtype=bool)
    for row, (bad, ends, _) in zip(failing, checks):
        # A span fails if the first bad index from its start is inside.
        where = np.flatnonzero(bad)
        if where.size:
            after = where[np.minimum(np.searchsorted(where, starts), where.size - 1)]
            row[:] = (after >= starts) & (after < ends)
    if failing.any():
        i = int(np.argmax(failing.any(axis=0)))
        reason = checks[int(np.argmax(failing[:, i]))][2]
        raise SignalError(f"span {i} ({int(lo[i])}, {int(hi[i])}): {reason}")


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


def _transform_groups(runs: list[tuple]) -> list[list[tuple]]:
    """Owner runs split into groups that share one sub-band transform.

    Consecutive runs whose owners have equal sub-band keys form one
    group; a run whose owner has none (a plain FFT backend) is a group
    of its own.
    """
    groups: list[list[tuple]] = []
    for run in runs:
        key = run[0]._subband_key
        if key is not None and groups and groups[-1][0][0]._subband_key == key:
            groups[-1].append(run)
        else:
            groups.append([run])
    return groups


def _packed(ws, wk1: np.ndarray, wk2: np.ndarray) -> np.ndarray:
    """``wk1 + 1j * wk2`` in a leased buffer: one complex FFT input."""
    packed = ws.take(wk1.shape, np.complex128)
    packed.real[:] = wk1
    packed.imag[:] = wk2
    return packed


@functools.lru_cache(maxsize=1024)
def _read_bins(ndim: int, nout: int) -> np.ndarray:
    """Bins ``1..nout``, then ``ndim-1`` down to ``ndim-nout``: the unpack's."""
    low = np.arange(1, nout + 1)
    bins = np.concatenate([low, ndim - low])
    bins.flags.writeable = False
    return bins


def _subband_rows(
    ws,
    group: list[tuple],
    wk1: np.ndarray,
    wk2: np.ndarray,
    data_ft: np.ndarray,
    win_ft: np.ndarray,
    count_ops: bool,
) -> list[OpCounts]:
    """FFT stage of owner runs that share one wavelet sub-band transform.

    ``group`` holds consecutive ``(owner, lo, hi)`` runs, the owners
    that keep the detail band first (:meth:`FastLomb._owner_ranks`).
    The group's rows are packed once and go through the sub-band half
    (the DWT and the approximation sub-FFT) together; the detail
    filter and sub-FFT cover only the rows of owners that keep the
    band.  Each owner then runs its butterflies over its own rows, at
    the ``2 * nout`` bins the unpack reads, into the packed input's
    storage (the DWT was its last reader), and unpacks them.  Returns
    the per-row FFT counts (empty unless counting).
    """
    base, top = group[0][1], group[-1][2]
    detail_rows = sum(
        hi - lo for owner, lo, hi in group if owner.backend.keeps_detail
    )
    packed = _packed(ws, wk1[base:top], wk2[base:top])
    sub_l, sub_h = group[0][0].backend.subbands_batch(packed, detail_rows, ws)
    bins = _read_bins(wk1.shape[1], data_ft.shape[1])
    spectra = packed.reshape(-1)[: (top - base) * bins.size]
    spectra = spectra.reshape(top - base, bins.size)
    counts: list[OpCounts] = []
    for owner, lo, hi in group:
        rows = slice(lo - base, hi - base)
        counts.extend(
            owner.backend.butterflies_batch(
                sub_l[rows],
                sub_h[rows] if owner.backend.keeps_detail else None,
                bins,
                spectra[rows],
                count_ops,
            )
        )
        owner._unpack_rows(spectra[rows], data_ft[lo:hi], win_ft[lo:hi])
    return counts


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

    A backend that exposes ``rfft`` / ``rfft_batch`` and performs no
    spectrum post-processing takes the fused real path (``fused_real``
    is true): the two real workspaces go through ``rfft`` instead of
    being packed into one complex FFT and unpacked — algebraically the
    same spectra (``np.allclose``) at roughly half the complex work.
    Pruned wavelet backends equalise the packed spectrum before it is
    unpacked, so they keep the packed path, where their butterflies
    compute only the ``2 * nout`` bins the unpack reads.  Modelled
    operation counts are the same either way: the sensor node is costed
    on the paper's packed pipeline.
    """

    def __init__(
        self,
        workspace_size: int = 512,
        oversample: float = 2.0,
        max_frequency: float | None = None,
        order: int = DEFAULT_ORDER,
        backend: FFTBackend | None = None,
        scaling: str = "standard",
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
        self.fused_real = (
            hasattr(self.backend, "rfft")
            and hasattr(self.backend, "rfft_batch")
            and self._backend_gains() is None
        )
        if not self.fused_real:
            missing = [
                name
                for name in ("transform_batch", "transform_batch_with_counts")
                if not hasattr(self.backend, name)
            ]
            if missing:
                raise ConfigurationError(
                    f"backend {type(self.backend).__name__} lacks "
                    f"{' and '.join(missing)}, which the batched "
                    "Fast-Lomb kernel calls"
                )
        # Packed-path wavelet backends split their batch transform into
        # a sub-band half that other owners of equal key share and a
        # butterfly half of their own (see :func:`_subband_rows`).
        self._subband_key = None
        if not self.fused_real and hasattr(self.backend, "subbands_batch"):
            self._subband_key = self.backend.subband_key

    # ------------------------------------------------------------------

    def _grid(self, duration: float, n_samples: int) -> tuple[float, int]:
        """``(df, nout)`` of one window: the one-row :meth:`_grid_rows`."""
        dfs, nouts = self._grid_rows(
            np.array([duration], dtype=np.float64), np.array([n_samples])
        )
        return float(dfs[0]), int(nouts[0])

    def _grid_rows(
        self, durations: np.ndarray, n_samples: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Frequency step ``df`` and bin count ``nout`` of every window.

        The one grid rule: the sequential path takes its one row through
        :meth:`_grid`, so both paths run the same IEEE operations.
        """
        if np.any(durations <= 0):
            raise SignalError("window duration must be positive")
        dfs = 1.0 / (self.oversample * durations)
        # The extirpolation grid has ndim*df samples per second; frequencies
        # beyond its Nyquist limit (ndim/2 bins) would alias, so a window
        # that is too long for the fixed workspace must be rejected rather
        # than silently truncated — the paper's 2-minute windows with
        # N = 512 keep the full 0-0.4 Hz HRV range well inside the limit.
        limit = self.workspace_size // 2 - 1
        if self.max_frequency is None:
            nyquist_like = 0.5 * n_samples / durations
            nouts = np.minimum(
                np.floor(nyquist_like / dfs).astype(np.int64), limit
            )
        else:
            nouts = np.floor(self.max_frequency / dfs).astype(np.int64)
            if np.any(nouts > limit):
                i = int(np.argmax(nouts))
                raise SignalError(
                    f"max_frequency {self.max_frequency} Hz needs "
                    f"{int(nouts[i])} bins but a {self.workspace_size}-point "
                    f"workspace over a {float(durations[i]):.0f} s window "
                    f"supports only {limit}; use shorter (Welch) windows or "
                    "a larger workspace"
                )
        if np.any(nouts < 1):
            raise SignalError("window too short: empty frequency grid")
        return dfs, nouts

    def periodogram(
        self, times, values, count_ops: bool = False
    ) -> LombSpectrum:
        """Fast-Lomb periodogram of one window of irregular samples.

        The sequential oracle: :meth:`periodogram_spans` runs the same
        steps vectorised over chunks of windows
        (:meth:`_periodogram_group_dense`).
        """
        t = as_1d_float_array(times, "times", min_length=4)
        x = as_1d_float_array(values, "values", min_length=4)
        if t.size != x.size:
            raise SignalError(
                f"times and values must match, got {t.size} and {x.size}"
            )
        if np.any(np.diff(t) <= 0):
            raise SignalError("times must be strictly increasing")
        n = t.size
        duration = float(t[-1] - t[0])
        df, nout = self._grid(duration, n)

        mean = float(x.mean())
        variance = float(np.var(x, ddof=1))
        if variance <= 0:
            raise SignalError("window has zero variance")

        ndim = self.workspace_size
        fac = ndim * df
        pos_data = (t - t[0]) * fac
        pos_data = np.clip(pos_data, 0.0, np.nextafter(float(ndim), 0.0))
        pos_window = np.mod(2.0 * pos_data, float(ndim))
        wk1 = extirpolate(x - mean, pos_data, ndim, self.order)
        wk2 = extirpolate(np.ones(n), pos_window, ndim, self.order)

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

        Owners that share a sub-band transform take adjacent ranks,
        those that keep the detail band first: sorted by rank, a
        chunk's rows of one transform form one contiguous range whose
        detail sub-FFT covers a prefix of it.
        """
        if owners is None:
            return [self], np.zeros(n, dtype=np.intp)
        owners = list(owners)
        if len(owners) != n:
            raise ConfigurationError(
                f"{len(owners)} FFT owners for {n} windows"
            )
        seen: set[int] = set()
        distinct: list[FastLomb] = []
        for owner in owners:
            if id(owner) not in seen:
                self._check_owner(owner)
                seen.add(id(owner))
                distinct.append(owner)
        first_of_key: dict = {}
        order = []
        for k, owner in enumerate(distinct):
            key = owner._subband_key
            if key is None:
                order.append((k, False, k))
            else:
                group = first_of_key.setdefault(key, k)
                order.append((group, not owner.backend.keeps_detail, k))
        distinct = [distinct[k] for *_, k in sorted(order)]
        index = {id(owner): rank for rank, owner in enumerate(distinct)}
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

    def periodogram_spans(
        self,
        times,
        values,
        spans,
        count_ops: bool = False,
        owners=None,
    ) -> LombBatch:
        """Fast-Lomb periodograms of many windows of one recording.

        Parameters
        ----------
        times, values:
            The recording's 1-D sample arrays, of equal length.
        spans:
            One ``(lo, hi)`` sample-index pair per window, ``0 <= lo <
            hi <= len(values)``, checked here; or the
            :class:`~repro._validation.SpanBounds` that check returned,
            which are trusted.
        count_ops:
            Fill the batch's per-window operation counts.
        owners:
            Optional per-window FFT owners, one :class:`FastLomb` per
            window (``None``: this analyser owns them all).  Window
            ``i`` runs the FFT stage on ``owners[i]`` and every other
            stage here, so one call serves windows of several quality
            levels, and each window's spectrum and counts equal those
            of a call on ``owners[i]`` alone, byte for byte.

        Each window is checked as :meth:`periodogram` checks its slice,
        whichever windows share the call: the first one with fewer than
        4 samples, a non-finite sample or a time that does not increase
        raises a :class:`SignalError` naming it.

        Windows run in chunks of dense ``(rows, N)`` array operations
        (:meth:`_periodogram_group_dense`), whatever their
        frequency-grid lengths.  Each chunk gathers its windows into
        padded ``(rows, pad)`` blocks with one indexed copy; a row's
        padding is whatever samples follow its span, which the kernel's
        lengths masks keep out of every result.  The returned
        :class:`LombBatch` rows, in span order, match :meth:`periodogram`
        of each span's slice (same spectra, same operation counts).
        """
        t = np.asarray(times, dtype=np.float64)
        x = np.asarray(values, dtype=np.float64)
        if not isinstance(spans, SpanBounds):
            if t.ndim != 1 or t.shape != x.shape:
                raise SignalError(
                    "times and values must be 1-D arrays of equal length, "
                    f"got shapes {t.shape} and {x.shape}"
                )
            spans = span_bounds(spans, x.size)
        lo, hi = spans
        distinct, ranks = self._owner_ranks(owners, lo.size)
        ns = hi - lo
        short = ns < 4
        if short.any():
            i = int(np.argmax(short))
            raise SignalError(
                f"span {i} ({int(lo[i])}, {int(hi[i])}) holds {int(ns[i])} "
                "samples; a window needs at least 4 samples"
            )
        if not lo.size:
            return LombBatch.stack()
        _check_span_samples(t, x, lo, hi)
        durations = t[hi - 1] - t[lo]
        dfs, nouts = self._grid_rows(durations, ns)
        # Rows of one owner sit together, so every chunk makes one
        # FFT-stage call per owner over a contiguous row range; rows are
        # independent, so their order changes no result (and the sort is
        # stable).  The batch is filled in that order, then unpermuted.
        order = np.argsort(ranks, kind="stable")
        permuted = bool(np.any(order != np.arange(order.size)))
        if permuted:
            lo, ns, dfs, nouts, durations, ranks = (
                column[order] for column in (lo, ns, dfs, nouts, durations, ranks)
            )
        batch = LombBatch(
            np.zeros((lo.size, int(nouts.max()))), nouts, dfs,
            np.empty(lo.size), np.empty(lo.size), ns, durations,
            np.empty((lo.size, 3), np.int64) if count_ops else None,
        )
        chunk_windows = get_batch_chunk_windows()
        # Bounded sub-batches keep the dense intermediates inside the
        # CPU caches; one monolithic multi-hour batch is measurably
        # slower than cache-sized chunks (rows are independent, so
        # chunking cannot change any result).
        for start in range(0, lo.size, chunk_windows):
            stop = start + chunk_windows
            rows = batch[start:stop]
            # Pad width quantised up to a multiple of 64 columns: results
            # are pad-width-independent (the dense kernel's per-row
            # slices and lengths masks keep padding out of every
            # reduction — the same invariant that makes fleet shard
            # merging exact), and a handful of stable widths keeps the
            # workspace arena keyed on a few trailing shapes instead of
            # one per distinct longest-window sample count.
            pad_n = ((int(rows.n_samples.max()) + 63) // 64) * 64
            with scratch() as ws:
                # Pure kernel inputs, read and never escaping: one lease.
                index, t_pad, x_pad = carve(
                    ws.take((3 * len(rows) * pad_n,)),
                    ((len(rows), pad_n), np.intp),
                    (len(rows), pad_n),
                    (len(rows), pad_n),
                )
                np.add(lo[start:stop, None], np.arange(pad_n), out=index)
                # "clip" keeps the rows that end the recording in bounds
                # and lets take write straight into ``out``.
                np.take(t, index, out=t_pad, mode="clip")
                np.take(x, index, out=x_pad, mode="clip")
                self._periodogram_group_dense(
                    t_pad,
                    x_pad,
                    rows,
                    _owner_runs(distinct, ranks[start:stop]),
                )
        if permuted:
            batch = batch[np.argsort(order)]
        return batch

    def _periodogram_group_dense(
        self,
        t_pad: np.ndarray,
        x_pad: np.ndarray,
        out: LombBatch,
        runs: list[tuple["FastLomb", int, int]],
    ) -> None:
        """Dense ``(rows, max_n)`` kernel over one chunk of span rows.

        ``out`` is the chunk's rows of the batch: the kernel reads their
        ``n_samples``, ``df`` and ``nout`` and writes their power,
        moments and counts.  ``t_pad`` / ``x_pad`` hold each row's
        samples followed by padding of any value; they are read, never
        written, and the lengths masks keep the padding out of every
        stage.  Window means are row reductions over each window's
        own samples, bit-identical to the sequential path's 1-D
        ``x.mean()``, so the centred samples — and hence dynamic-pruning
        decisions and operation counts — match it exactly; variances
        are re-derived from the centred batch (they only scale the
        output power).

        One pass serves rows of every frequency-grid length: the FFT
        stage and the Lomb combine run at the widest grid of the chunk,
        and row *i* keeps bins ``1 .. nout_i``.  That is exact, because
        a row's ``nout`` only decides how many bins it keeps: its
        workspace positions depend on its ``df``, the FFT covers the
        whole workspace and every combine step is elementwise.

        ``runs`` are the ``(owner, lo, hi)`` row ranges of each FFT
        owner (:meth:`_owner_ranks`).  Moments, workspace positions,
        the extirpolation of both workspaces (one scatter of at most a
        chunk's worth of rows) and the Lomb combine run once over all
        rows; only the FFT stage runs per owner, over that owner's rows
        (:meth:`_fft_rows`), and owners that share a wavelet sub-band
        transform run it once over all of their rows
        (:func:`_subband_rows`).  Every stage is row-independent, so a
        row's result does not depend on which rows share its batch.

        Every intermediate (masks, workspaces, FFT outputs, the dozen
        Lomb-combine temporaries) is leased from the active workspace
        arena when one is installed, and each formula is staged through
        ``out=`` ufunc calls that reproduce the original expression's
        operation structure exactly — same operations, same operand
        order, same rounding — so arena-on and arena-off results are
        bit-for-bit identical.  Only the batch's columns escape.
        """
        ndim = self.workspace_size
        rows, max_n = t_pad.shape
        ns, dfs = out.n_samples, out.df
        nout = int(out.nout.max())
        means, variances = out.mean, out.variance
        with scratch() as ws:
            with _profile_span("prepare"):
                _row_means(x_pad, ns, means)
                # ``real`` marks the samples of both workspaces' rows.
                masks = ws.take((3 * rows, max_n), np.bool_)
                real, invalid = masks[: 2 * rows], masks[2 * rows :]
                valid = real[:rows]
                # Both workspaces' sample values and positions, stacked
                # so that one scatter extirpolates them: rows of
                # ``values`` are [centered; valid_f], of ``positions``
                # [pos_data; pos_window].
                values, positions = ws.take_block(2, (2 * rows, max_n))
                centered, valid_f = values[:rows], values[rows:]
                pos_data, pos_window = positions[:rows], positions[rows:]
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
                # Padded slots hold whatever samples follow the span (NaN
                # and infinities included), so their positions are
                # meaningless; the scatter reads only ``real`` samples.
                np.subtract(t_pad, t_pad[:, :1], out=pos_data)
                np.multiply(pos_data, (ndim * dfs)[:, None], out=pos_data)
                np.clip(
                    pos_data, 0.0, np.nextafter(float(ndim), 0.0),
                    out=pos_data,
                )
                np.multiply(pos_data, 2.0, out=pos_window)
                np.mod(pos_window, float(ndim), out=pos_window)
                np.copyto(valid_f, valid)
                np.copyto(real[rows:], valid)
            workspaces = ws.take((2 * rows, ndim))
            wk1, wk2 = workspaces[:rows], workspaces[rows:]
            # Both workspaces of a chunk go through one scatter of at
            # most a chunk's worth of rows: a small batch saves a whole
            # call's fixed cost, while a full chunk scattered at twice
            # its size would outgrow the caches the chunk size was tuned
            # for (256 rows read ~10 % slower in one call than in two).
            # Each cell belongs to one row of one workspace and sums its
            # contributions in that row's own order, so any split gives
            # the same workspaces.
            step = get_batch_chunk_windows()
            with _profile_span("extirpolate"):
                for lo in range(0, 2 * rows, step):
                    hi = lo + step
                    scatter_rows(
                        values[lo:hi],
                        positions[lo:hi],
                        real[lo:hi],
                        ndim,
                        self.order,
                        out=workspaces[lo:hi],
                    )

            # Bins 1..nout of the data and window spectra: each owner
            # fills its own rows, and the combine reads every row.
            data_ft, win_ft = ws.take_block(2, (rows, nout), np.complex128)
            count_ops = out.counts is not None
            fft_counts: list[OpCounts] = []
            with _profile_span("fft"):
                for group in _transform_groups(runs):
                    owner, lo, hi = group[0]
                    if owner._subband_key is None:
                        counts = owner._fft_rows(
                            ws,
                            wk1[lo:hi],
                            wk2[lo:hi],
                            data_ft[lo:hi],
                            win_ft[lo:hi],
                            count_ops,
                        )
                    else:
                        counts = _subband_rows(
                            ws, group, wk1, wk2, data_ft, win_ft, count_ops
                        )
                    if count_ops:
                        fft_counts.extend(counts)
            if count_ops:
                owners = [owner for owner, lo, hi in runs for _ in range(lo, hi)]
                out.counts[:] = _count_rows(
                    sum(owner._non_fft_counts(n, k).values(), fft)
                    for owner, n, k, fft in zip(
                        owners, ns.tolist(), out.nout.tolist(), fft_counts
                    )
                )

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
                power = out.power[:, :nout]
                if self.scaling == "standard":
                    np.divide(raw, 2.0 * variances[:, None], out=power)
                else:
                    np.divide(raw, nn, out=power)

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

        The one stage that depends on the backend, here a plain FFT
        backend (wavelet plans take :func:`_subband_rows`).  Writes bins
        ``1..nout`` of the data and window spectra of ``wk1`` / ``wk2``
        into the ``(rows, nout)`` complex ``data_ft`` / ``win_ft`` and
        returns the per-row FFT :class:`OpCounts`, or ``None`` unless
        counting.  Temporaries lease from ``ws``.
        """
        rows, nout = data_ft.shape
        ndim = self.workspace_size
        # Providers advertise out= support; anything else (the explicit
        # oracle, third-party providers with the pre-out= signature)
        # keeps its fresh-allocation behaviour.
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
        packed = _packed(ws, wk1, wk2)
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
        spectra = ws.take((rows, 2 * nout), np.complex128)
        bins = _read_bins(ndim, nout)
        np.take(spectrum, bins, axis=1, out=spectra, mode="clip")
        self._unpack_rows(spectra, data_ft, win_ft)
        return fft_counts

    def _unpack_rows(
        self, spectra: np.ndarray, data_ft: np.ndarray, win_ft: np.ndarray
    ) -> None:
        """Data and window spectra from the packed spectra's read bins.

        ``spectra`` holds each row's :func:`_read_bins`, ``z_pos`` then
        ``z_neg``; this analyser's band-drop equalisation gains (see
        :meth:`periodogram`) and the conjugation are applied in place.
        """
        nout = data_ft.shape[1]
        gains = self._backend_gains()
        if gains is not None:
            bins = _read_bins(self.workspace_size, nout)
            np.multiply(spectra, gains[bins], out=spectra)
        z_pos, z_neg = spectra[:, :nout], spectra[:, nout:]
        conj_neg = np.conjugate(z_neg, out=z_neg)
        np.add(z_pos, conj_neg, out=data_ft)
        np.multiply(data_ft, 0.5, out=data_ft)
        np.subtract(z_pos, conj_neg, out=win_ft)
        np.multiply(win_ft, -0.5j, out=win_ft)

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
