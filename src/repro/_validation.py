"""Small argument-validation helpers shared across the library.

These helpers raise the library's own exception types with uniform,
informative messages, and normalise array-likes to ``numpy`` arrays so the
numeric kernels can rely on dtype and dimensionality invariants.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, SignalError

__all__ = [
    "as_1d_float_array",
    "as_1d_complex_array",
    "as_2d_complex_array",
    "require_integer",
    "require_power_of_two",
    "require_positive",
    "require_in_range",
    "is_power_of_two",
    "span_bounds",
    "SpanBounds",
]


def is_power_of_two(n: int) -> bool:
    """Return True when *n* is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def require_integer(value, name: str = "value") -> int:
    """Return a Python or numpy integer as int; refuse bools, floats, text."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_power_of_two(n: int, name: str = "n") -> int:
    """Validate that *n* is a positive power of two and return it as int."""
    n = require_integer(n, name)
    if not is_power_of_two(n):
        raise ConfigurationError(f"{name} must be a positive power of two, got {n}")
    return n


def require_positive(value: float, name: str = "value") -> float:
    """Validate that *value* is strictly positive and return it as float."""
    value = float(value)
    if not value > 0.0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    return value


def require_in_range(
    value: float, low: float, high: float, name: str = "value"
) -> float:
    """Validate ``low <= value <= high`` and return *value* as float."""
    value = float(value)
    if not (low <= value <= high):
        raise ConfigurationError(
            f"{name} must be in [{low}, {high}], got {value}"
        )
    return value


def as_1d_float_array(x, name: str = "x", min_length: int = 1) -> np.ndarray:
    """Return *x* as a 1-D float64 array, validating shape and finiteness."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise SignalError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_length:
        raise SignalError(
            f"{name} must have at least {min_length} samples, got {arr.size}"
        )
    if not np.all(np.isfinite(arr)):
        raise SignalError(f"{name} contains non-finite values")
    return arr


def as_1d_complex_array(x, name: str = "x", min_length: int = 1) -> np.ndarray:
    """Return *x* as a 1-D complex128 array, validating shape and finiteness."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1:
        raise SignalError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_length:
        raise SignalError(
            f"{name} must have at least {min_length} samples, got {arr.size}"
        )
    if not np.all(np.isfinite(arr)):
        raise SignalError(f"{name} contains non-finite values")
    return arr


def as_2d_complex_array(x, name: str = "x", width: int | None = None) -> np.ndarray:
    """Return *x* as a 2-D complex128 batch, validating shape and finiteness.

    ``width`` pins the second (per-row transform) dimension; the batched
    kernels use it to reject inputs that do not match the plan size.
    """
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 2:
        raise SignalError(
            f"{name} must be two-dimensional (rows, n), got shape {arr.shape}"
        )
    if width is not None and arr.shape[1] != width:
        raise SignalError(
            f"{name} rows have length {arr.shape[1]}, expected {width}"
        )
    if not np.all(np.isfinite(arr)):
        raise SignalError(f"{name} contains non-finite values")
    return arr


class SpanBounds(NamedTuple):
    """The ``lo`` and ``hi`` columns of spans :func:`span_bounds` accepted.

    Holding one means the check was made: a consumer handed these
    bounds for the same samples does not check them again.
    """

    lo: np.ndarray
    hi: np.ndarray


def span_bounds(
    spans, length: int, allow_empty: bool = False
) -> SpanBounds:
    """Validate ``(lo, hi)`` index spans into an array of *length* samples.

    Every span must be a pair of integers with ``0 <= lo < hi <=
    length`` (``lo <= hi`` when *allow_empty*).  Returns the ``lo`` and
    ``hi`` columns as int64 vectors; the :class:`SignalError` names the
    first span that breaks the rule, so a malformed span batch fails
    before any kernel work instead of silently slicing from the end
    (negative bounds) or past it.
    """
    try:
        arr = np.asarray(spans)
    except ValueError:  # ragged: some span is not a pair
        arr = None
    if arr is not None and arr.ndim in (1, 2) and arr.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return SpanBounds(empty, empty)
    if arr is None or arr.shape[1:] != (2,) or arr.dtype.kind not in "iu":
        for i, span in enumerate(spans):
            if not _is_integer_pair(span):
                raise SignalError(
                    f"span {i} {span!r} is not an integer (lo, hi) pair"
                )
        raise SignalError("spans must be integer (lo, hi) pairs")
    arr = arr.astype(np.int64, copy=False)
    lo, hi = arr[:, 0], arr[:, 1]
    bad = (lo < 0) | (hi > length) | (hi - lo < (0 if allow_empty else 1))
    if bad.any():
        i = int(np.argmax(bad))
        rule = "lo <= hi" if allow_empty else "lo < hi"
        raise SignalError(
            f"span {i} ({int(lo[i])}, {int(hi[i])}) breaks "
            f"0 <= {rule} <= {length}"
        )
    return SpanBounds(lo, hi)


def _is_integer_pair(span) -> bool:
    try:
        pair = np.asarray(span)
    except ValueError:
        return False
    return pair.shape == (2,) and pair.dtype.kind in "iu"
