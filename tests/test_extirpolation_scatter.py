"""The batch extirpolation scatter against the loops it replaced.

:func:`~repro.lomb.extirpolation.extirpolate_batch` gathers each row's
real samples by their flat indices, computes the Lagrange weights as
contiguous columns and writes them once into the sample-major tail of
the flat ``bincount`` arrays.  Every row must equal, byte for byte, the
sequential :func:`~repro.lomb.extirpolation.extirpolate` of its prefix
and the batch implementation that design replaced, kept here as a
reference.  Padding beyond a row's length may hold anything, NaN and
infinities included; within it, the batch path refuses what the
sequential one refuses, with the same message.
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SignalError
from repro.ffts.plancache import lagrange_denominators
from repro.lomb import extirpolate, extirpolate_batch
from repro.lomb.extirpolation import scatter_rows
from repro.perf import execution
from repro.perf.workspace import WorkspaceArena

# ----------------------------------------------------------------------
# Reference: the batch scatter the column-wise design replaced
# ----------------------------------------------------------------------


def _spread_reference(frac_pos, size, order):
    """First cells and ``(n, order)`` weights, as the replaced helper."""
    n = frac_pos.size
    if order == 4:
        shifted = frac_pos - 0.5 * order
        shifted += 1.0
        ilo = np.clip(shifted.astype(np.int64), 0, size - order)
        d0 = frac_pos - ilo
        d1, d2, d3 = d0 - 1.0, d0 - 2.0, d0 - 3.0
        p01, p32 = d0 * d1, d3 * d2
        weights = np.empty((n, 4))
        weights[:, 0] = p32 * d1
        weights[:, 1] = d0 * p32
        weights[:, 2] = p01 * d3
        weights[:, 3] = p01 * d2
        weights *= 1.0 / lagrange_denominators(4)
        return ilo, weights
    ilo = (frac_pos - 0.5 * order + 1.0).astype(np.int64)
    ilo = np.clip(ilo, 0, size - order)
    diffs = (frac_pos - ilo)[:, None] - np.arange(order, dtype=np.float64)
    weights = np.empty_like(diffs)
    running = np.ones_like(frac_pos)
    for c in range(order):
        weights[:, c] = running
        running = running * diffs[:, c]
    running = np.ones_like(frac_pos)
    for c in range(order - 1, -1, -1):
        weights[:, c] *= running
        running = running * diffs[:, c]
    weights *= 1.0 / lagrange_denominators(order)
    return ilo, weights


def _batch_reference(values, positions, size, order, lengths):
    """The replaced batch scatter: padding as zero-valued cell-0 samples."""
    rows, width = values.shape
    pos, vals = positions.copy(), values.copy()
    invalid = ~(np.arange(width)[None, :] < lengths[:, None])
    pos[invalid] = 0.0
    vals[invalid] = 0.0
    floors = np.floor(pos)
    exact = pos == floors
    row_offsets = np.broadcast_to(
        (np.arange(rows, dtype=np.int64) * size)[:, None], (rows, width)
    )
    cells = floors.astype(np.int64) + row_offsets
    flat = [cells[exact]]
    flat_weights = [vals[exact]]
    frac = ~exact
    ilo, weights = _spread_reference(pos[frac], size, order)
    base = row_offsets[frac] + ilo
    flat.append((base[:, None] + np.arange(order)).ravel())
    flat_weights.append((vals[frac][:, None] * weights).ravel())
    binned = np.bincount(
        np.concatenate(flat),
        weights=np.concatenate(flat_weights),
        minlength=rows * size,
    )
    return binned.reshape(rows, size)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

_GARBAGE = np.array([np.nan, np.inf, -np.inf, -1.0, 1e300, 0.0])


@st.composite
def _scatter_inputs(draw):
    """Padded rows of samples with garbage beyond each row's length.

    Positions are fractional anywhere in the workspace, integers, a
    handful of cells shared by several samples, or the Fast-Lomb
    window workspace's wrapped ``mod(2 * pos, size)``; rows run from
    empty to full.
    """
    order = draw(st.integers(2, 10))
    size = draw(st.integers(order, 48))
    rows = draw(st.integers(0, 6))
    width = draw(st.integers(0, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "integer", "crowded", "wrapped"]))
    if kind == "uniform":
        pos = rng.uniform(0.0, size, (rows, width))
    elif kind == "integer":
        pos = rng.integers(0, size, (rows, width)).astype(np.float64)
    elif kind == "crowded":
        cells = rng.integers(0, size, 3).astype(np.float64)
        offsets = np.array([0.0, 0.25, 0.5, 0.75])
        pos = rng.choice(cells, (rows, width)) + rng.choice(
            offsets, (rows, width)
        )
        pos = np.minimum(pos, np.nextafter(float(size), 0.0))
    else:
        pos = np.mod(2.0 * rng.uniform(0.0, size, (rows, width)), size)
    if draw(st.booleans()):  # some integer positions in any row
        hits = rng.random((rows, width)) < 0.2
        pos[hits] = np.floor(pos[hits])
    vals = rng.standard_normal((rows, width)) * 10.0 ** rng.uniform(
        -3, 3, (rows, width)
    )
    lengths = rng.integers(0, width + 1, rows)
    if rows and draw(st.booleans()):
        lengths[0] = width
    padding = np.arange(width)[None, :] >= lengths[:, None]
    pos[padding] = rng.choice(_GARBAGE, int(padding.sum()))
    vals[padding] = rng.choice(_GARBAGE, int(padding.sum()))
    return vals, pos, size, order, lengths


def _same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


class TestScatterProperties:
    @given(inputs=_scatter_inputs())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_sequential_and_replaced_scatter(self, inputs):
        vals, pos, size, order, lengths = inputs
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # garbage must never be read
            batch = extirpolate_batch(vals, pos, size, order, lengths=lengths)
        assert _same_bytes(
            batch, _batch_reference(vals, pos, size, order, lengths)
        )
        for i, k in enumerate(lengths):
            expected = (
                extirpolate(vals[i, :k], pos[i, :k], size, order)
                if k
                else np.zeros(size)
            )
            assert _same_bytes(batch[i], expected)

    @given(inputs=_scatter_inputs())
    @settings(max_examples=40, deadline=None)
    def test_arena_and_trusted_entry_give_the_same_bytes(self, inputs):
        vals, pos, size, order, lengths = inputs
        plain = extirpolate_batch(vals, pos, size, order, lengths=lengths)
        real = np.arange(vals.shape[1])[None, :] < lengths[:, None]
        out = np.full((vals.shape[0], size), np.nan)
        with execution(arena=WorkspaceArena()):
            pooled = extirpolate_batch(vals, pos, size, order, lengths=lengths)
            scatter_rows(vals, pos, real, size, order, out=out)
        assert _same_bytes(pooled, plain)
        assert _same_bytes(out, plain)


# ----------------------------------------------------------------------
# Refusals
# ----------------------------------------------------------------------


class TestScatterRefusals:
    @pytest.mark.parametrize(
        "name, column, value",
        [
            ("values", 1, np.nan),
            ("values", 0, np.inf),
            ("positions", 1, np.nan),
            ("positions", 0, -np.inf),
            ("positions", 1, -0.5),
            ("positions", 0, 16.0),
        ],
    )
    def test_refuses_what_the_sequential_path_refuses(self, name, column, value):
        arrays = {
            "values": np.array([[1.0, 2.0, 3.0]]),
            "positions": np.array([[1.0, 3.5, 7.25]]),
        }
        arrays[name][0, column] = value
        vals, pos = arrays["values"], arrays["positions"]
        with pytest.raises(SignalError) as sequential:
            extirpolate(vals[0], pos[0], 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                SignalError, match=re.escape(str(sequential.value))
            ):
                extirpolate_batch(vals, pos, 16, lengths=np.array([3]))
