"""Lagrange extirpolation (Press-Rybicki spreading).

The Fast-Lomb algorithm replaces the per-frequency trigonometric sums of
the direct method with sums it can evaluate by FFT.  To do that, every
irregular sample is *extirpolated* — spread onto a small neighbourhood of
a uniform grid with Lagrange interpolation weights run in reverse — so
that, for all sufficiently low frequencies, sums over the grid match sums
over the original sample instants.

This is the "extrapolation (i.e., redistribution to the needed order
[10])" step of the paper's PSA pipeline (Fig. 1a), and produces exactly
the spiky half-filled workspace of Fig. 3(a): 117 RR intervals spread
over the first ~256 cells of the 512-cell FFT workspace.

Two execution paths share the same weights (:func:`_fractional_spread`):

* :func:`extirpolate` — one window onto one workspace (the sequential
  oracle), scatter-added with ``np.add.at``;
* :func:`extirpolate_batch` — many windows at once, scatter-added over a
  flattened ``(window, cell)`` index space with one ``bincount``.  It
  checks its inputs and runs :func:`scatter_rows`, the trusted entry the
  Fast-Lomb kernel calls on positions it clipped itself.

Batched workspaces are bit-identical per row to the sequential path
because every cell sums the same addends in the same order.  Both
scatters add in input order: first each exact (integer-position)
sample's value, then each fractional sample's ``order`` contributions,
sample by sample.  The batch gathers only each row's real samples;
padding beyond a row's length (NaN and infinities included) is never
read.  Dropping the padding, rather than scattering it as +0.0-valued
samples at cell 0, changes no byte either: a cell starts at +0.0 and
can never hold -0.0 (a sum is -0.0 only when both addends are), so
adding +0.0 never changes it.

The constant Lagrange denominator table is memoised in
:func:`repro.ffts.plancache.lagrange_denominators` instead of being
rebuilt from ``math.factorial`` on every call.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_1d_float_array
from ..errors import SignalError
from ..ffts.plancache import lagrange_denominators
from ..perf.workspace import Scratch, carve, scratch

__all__ = ["extirpolate", "extirpolate_batch", "extirpolation_weights"]

#: Default interpolation order used by Numerical Recipes' ``fasper``.
DEFAULT_ORDER = 4

#: ``c`` as a float, for the offsets ``x - (ilo + c)`` of every order.
_CELL_OFFSETS = np.arange(10.0)
_CELL_OFFSETS.flags.writeable = False


def extirpolation_weights(
    position: float, size: int, order: int = DEFAULT_ORDER
) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices and Lagrange weights for one sample.

    Returns ``(cells, weights)`` such that adding ``value * weights`` at
    ``cells`` extirpolates a sample located at the fractional grid
    *position*.  Matches the classic `spread` routine: integer positions
    collapse to a single cell; otherwise the *order* nearest cells receive
    reverse-Lagrange weights.
    """
    if not 0 <= position < size:
        raise SignalError(
            f"position {position} outside workspace [0, {size})"
        )
    if order < 2 or order > 10:
        raise SignalError(f"order must be in [2, 10], got {order}")
    if float(position).is_integer():
        return (np.array([int(position)]), np.array([1.0]))
    ilo = int(position - 0.5 * order + 1.0)
    ilo = min(max(ilo, 0), size - order)
    cells = ilo + np.arange(order)
    # fac = prod_k (x - j_k); weight_c = fac / ((x - j_c) * denom_c) with
    # denom_c = (-1)^(order-1-c) * c! * (order-1-c)! (cached table).
    diffs = position - cells
    fac = float(np.prod(diffs))
    weights = fac / (diffs * lagrange_denominators(order))
    return cells, weights


def extirpolate(
    values, positions, size: int, order: int = DEFAULT_ORDER
) -> np.ndarray:
    """Spread *values* at fractional grid *positions* into a new workspace.

    Vectorised over samples; the result satisfies, for smooth test
    functions g evaluated on the grid,
    ``sum_j values[j] * g(positions[j]) ~= sum_c out[c] * g(c)``.
    """
    vals = as_1d_float_array(values, "values")
    pos = as_1d_float_array(positions, "positions")
    if vals.size != pos.size:
        raise SignalError(
            f"values and positions must match, got {vals.size} and {pos.size}"
        )
    if size < order:
        raise SignalError(f"workspace size {size} smaller than order {order}")
    if np.any(pos < 0) or np.any(pos >= size):
        raise SignalError(f"positions must lie in [0, {size})")

    out = np.zeros(size, dtype=np.float64)
    exact = pos == np.floor(pos)
    if np.any(exact):
        np.add.at(out, pos[exact].astype(np.int64), vals[exact])
    if np.all(exact):
        return out

    frac_pos = pos[~exact]
    frac_vals = vals[~exact]
    ilo, weights = _fractional_spread(frac_pos, size, order, Scratch(None))
    cells = ilo[:, None] + np.arange(order)
    np.add.at(out, cells, (weights * frac_vals).T)
    return out


def _fractional_spread(
    frac_pos: np.ndarray, size: int, order: int, ws: Scratch
) -> tuple[np.ndarray, np.ndarray]:
    """First cell and reverse-Lagrange weights of non-integer positions.

    Returns ``(ilo, weights)``: sample ``j`` spreads onto cells
    ``ilo[j] + c`` with weight ``weights[c, j]``, ``c = 0 .. order-1``.
    The weights are ``prod_{k != c}(x - j_k) / denom_c``, built from
    prefix and suffix products of ``d_k = x - j_k``: ``weights[c] =
    prefix_c * suffix_c``, where a product of no factor is skipped
    rather than multiplied by 1.0 (an exact no-op), so at order 4 the
    chain is the six multiplies ``(d3*d2)*d1``, ``d0*(d3*d2)``,
    ``(d0*d1)*d3`` and ``(d0*d1)*d2``.  Every weight is a contiguous
    row, so each step is a plain pass over contiguous memory.
    Sequential and batched extirpolation share this helper, so they
    perform identical floating-point work per sample.  The returned
    arrays are leased from *ws*.
    """
    inverses = 1.0 / lagrange_denominators(order)  # checks the order
    n = frac_pos.size
    # Rows d_1 .. d_{order-2}, then the weights, whose first two rows
    # start as d_{order-1} (the running suffix, which ends as suffix_0)
    # and d_0 (prefix_1): d_1 .. d_{order-1} are one contiguous block.
    ilo, block = carve(
        ws.take(((2 * order - 1) * n,)), ((n,), np.int64), (2 * order - 2, n)
    )
    diffs, weights = block[: order - 1], block[order - 2 :]
    d0 = weights[1]
    np.subtract(frac_pos, 0.5 * order, out=d0)
    np.add(d0, 1.0, out=d0)
    np.copyto(ilo, d0, casting="unsafe")  # astype truncation
    np.clip(ilo, 0, size - order, out=ilo)
    np.subtract(frac_pos, ilo, out=d0)
    np.subtract(d0, _CELL_OFFSETS[1:order, None], out=diffs)  # d_0 - c
    for c in range(2, order):  # prefix_c = prefix_{c-1} * d_{c-1}
        np.multiply(weights[c - 1], diffs[c - 2], out=weights[c])
    for c in range(order - 2, 0, -1):
        np.multiply(weights[c], weights[0], out=weights[c])
        np.multiply(weights[0], diffs[c - 1], out=weights[0])
    np.multiply(weights, inverses[:, None], out=weights)
    return ilo, weights


def _row_cells(at: np.ndarray, width: int, size: int, out: np.ndarray) -> None:
    """First flat cell ``row * size`` of each flat sample index *at*."""
    np.floor_divide(at, width, out=out)
    np.multiply(out, size, out=out)


def extirpolate_batch(
    values,
    positions,
    size: int,
    order: int = DEFAULT_ORDER,
    lengths=None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Extirpolate many windows at once onto a ``(n_windows, size)`` batch.

    Parameters
    ----------
    values, positions:
        ``(n_windows, max_samples)`` arrays.  Windows shorter than
        ``max_samples`` are right-padded; *lengths* marks how many leading
        entries of each row are real samples (``None`` means all of them).
        Padding may hold anything, NaN and infinities included.
    size:
        Workspace length per window.
    order:
        Lagrange interpolation order.
    lengths:
        Optional ``(n_windows,)`` integer array of valid sample counts.
    out:
        Optional ``(n_windows, size)`` float64 destination, e.g. a
        :class:`~repro.perf.WorkspaceArena` buffer.

    Raises the sequential :func:`extirpolate`'s :class:`SignalError` for
    a non-finite value or position, or a position outside ``[0, size)``,
    among each row's real samples.  Each row of the result is
    bit-identical to a sequential call on that row's samples
    (:func:`scatter_rows`).
    """
    vals = np.asarray(values, dtype=np.float64)
    pos = np.asarray(positions, dtype=np.float64)
    if vals.ndim != 2 or pos.ndim != 2 or vals.shape != pos.shape:
        raise SignalError(
            "values and positions must be matching 2-D arrays, got shapes "
            f"{vals.shape} and {pos.shape}"
        )
    if size < order:
        raise SignalError(f"workspace size {size} smaller than order {order}")
    if order < 2 or order > 10:
        raise SignalError(f"order must be in [2, 10], got {order}")
    rows, width = vals.shape
    if out is not None and (
        out.shape != (rows, size) or out.dtype != np.float64
    ):
        raise SignalError(
            f"out must be float64 with shape ({rows}, {size}), got "
            f"{out.dtype} {out.shape}"
        )
    if lengths is None:
        real = np.ones((rows, width), dtype=bool)
    else:
        counts = np.asarray(lengths, dtype=np.int64)
        if counts.shape != (rows,):
            raise SignalError(
                f"lengths must have shape ({rows},), got {counts.shape}"
            )
        if np.any(counts < 0) or np.any(counts > width):
            raise SignalError(f"lengths must lie in [0, {width}]")
        real = np.arange(width) < counts[:, None]
    # NaN and infinite positions fail the range test too; which check a
    # rejected sample fails is sorted out, in the oracle's order, only
    # once one is found.
    ok = np.isfinite(vals) & (pos >= 0.0) & (pos < size)
    if np.any(np.less(ok, real, out=ok)):  # real and not ok
        for name, arr in (("values", vals), ("positions", pos)):
            if not np.isfinite(arr[real]).all():
                raise SignalError(f"{name} contains non-finite values")
        raise SignalError(f"positions must lie in [0, {size})")
    return scatter_rows(vals, pos, real, size, order, out)


def scatter_rows(
    values: np.ndarray,
    positions: np.ndarray,
    real: np.ndarray,
    size: int,
    order: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`extirpolate_batch` on inputs its caller already checked.

    The trusted entry of the batch scatter, as
    :class:`~repro._validation.SpanBounds` is of the span check: the
    Fast-Lomb kernel calls it on positions it clipped into
    ``[0, size)`` itself, so neither the check nor an input copy runs
    again.  *values* and *positions* are float64 ``(rows, width)``
    arrays and *real* is the boolean mask of their real samples, each
    with a finite value and a finite position inside the workspace;
    the other entries are never read.  Nothing is written to the
    inputs.

    The scatter-add runs over a flattened ``(row, cell)`` index space
    with a single ``bincount`` — no per-row Python iteration.  Only the
    real samples are gathered, by their flat indices: exact
    (integer-position) samples first, then the fractional ones, each
    group in row-major sample order.  The fractional samples' weights
    and contributions are computed as contiguous columns and written
    once into the sample-major ``(n_frac, order)`` tail of the flat
    cell and weight arrays.  So every cell sums its addends in the
    order the sequential :func:`extirpolate` does, and each row of the
    result is bit-identical to a sequential call on that row.  All
    temporaries are leased from the active workspace arena when one is
    installed; every operation is the same with or without one.
    """
    rows, width = positions.shape
    flat_pos, flat_vals = positions.ravel(), values.ravel()
    with scratch() as ws:
        floors = ws.take((rows, width))
        exact, frac = ws.take_block(2, (rows, width), np.bool_)
        np.floor(positions, out=floors)
        np.equal(positions, floors, out=exact)
        np.logical_and(exact, real, out=exact)
        np.greater(real, exact, out=frac)  # real and not exact
        exact_at = np.flatnonzero(exact)
        frac_at = np.flatnonzero(frac)
        n_exact, n_frac = exact_at.size, frac_at.size

        n_flat = n_exact + n_frac * order
        flat, flat_weights, frac_pos, frac_vals, base = carve(
            ws.take((2 * n_flat + 3 * n_frac,)),
            ((n_flat,), np.int64),
            (n_flat,),
            (n_frac,),
            (n_frac,),
            ((n_frac,), np.int64),
        )
        # Exact samples: one addend each, at row * size + position (the
        # positions, integers here, pass through the weights' slots).
        exact_cells, exact_weights = flat[:n_exact], flat_weights[:n_exact]
        np.take(flat_pos, exact_at, out=exact_weights, mode="clip")
        _row_cells(exact_at, width, size, exact_cells)
        np.add(exact_cells, exact_weights, out=exact_cells, casting="unsafe")
        np.take(flat_vals, exact_at, out=exact_weights, mode="clip")

        # Fractional samples: ``order`` addends each, one sample per row
        # of the (n_frac, order) tails, written one column at a time.
        np.take(flat_pos, frac_at, out=frac_pos, mode="clip")
        np.take(flat_vals, frac_at, out=frac_vals, mode="clip")
        ilo, weights = _fractional_spread(frac_pos, size, order, ws)
        _row_cells(frac_at, width, size, base)
        np.add(base, ilo, out=base)
        frac_cells = flat[n_exact:].reshape(n_frac, order)
        frac_weights = flat_weights[n_exact:].reshape(n_frac, order)
        for c in range(order):
            np.add(base, c, out=frac_cells[:, c])
            np.multiply(frac_vals, weights[c], out=frac_weights[:, c])

        # bincount is by far the fastest exact scatter-add numpy offers
        # but always allocates its result: the one fresh allocation.
        binned = np.bincount(
            flat, weights=flat_weights, minlength=rows * size
        ).reshape(rows, size)
    if out is None:
        return binned
    np.copyto(out, binned)
    return out
