"""Shared-memory transport for cohort RR arrays.

The fleet engine distributes *window index ranges*, not window data:
each recording's ``times`` / ``values`` arrays are written once into
POSIX shared memory by the parent, and every worker slices its shard's
windows directly out of the mapped block — zero copies per window and
no pickling of per-window tuples through the task queue.

Ownership is strictly parent-side: :class:`SharedRecordingStore`
creates and unlinks every block; workers only attach read-only views
via :func:`attach_array` and deliberately unregister the attachment
from their ``resource_tracker`` so a worker exiting does not tear the
block down under its siblings (CPython < 3.13 tracks attachments the
same as creations; see python/cpython#82300).
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..errors import SignalError

__all__ = ["SharedArrayRef", "SharedRecordingStore", "attach_array"]

#: Whether ``SharedMemory(..., track=False)`` exists (Python >= 3.13),
#: probed once at import so the attach hot path never pays for the
#: signature inspection or a try/except TypeError round trip.
_TRACK_SUPPORTED = "track" in inspect.signature(
    shared_memory.SharedMemory.__init__
).parameters

#: Serialises the pre-3.13 fallback below.  It swaps
#: ``resource_tracker.register`` for a no-op **process-globally**;
#: without the lock, two threads attaching concurrently (exactly what a
#: multiplexed stream hub does) can each capture the other's no-op as
#: the "original" and leave the tracker permanently disabled — or
#: re-enable it mid-attach and register a sibling's block for teardown.
_ATTACH_LOCK = threading.Lock()


@dataclass(frozen=True)
class SharedArrayRef:
    """Picklable handle to one float64 array in shared memory.

    Attributes
    ----------
    name:
        POSIX shared-memory block name.
    length:
        Number of float64 elements in the block.
    """

    name: str
    length: int


class SharedRecordingStore:
    """Parent-side owner of a cohort's shared-memory arrays.

    Use as a context manager around the worker pool's lifetime::

        with SharedRecordingStore() as store:
            ref = store.put(times)
            ... dispatch tasks carrying ``ref`` ...

    ``close()`` (or context exit) unlinks every block; workers must be
    done by then.
    """

    def __init__(self):
        self._blocks: list[shared_memory.SharedMemory] = []

    def put(self, array) -> SharedArrayRef:
        """Copy a 1-D float array (values unchecked) into a new block."""
        arr = np.ascontiguousarray(array, dtype=np.float64)
        if arr.ndim != 1 or not arr.size:
            raise SignalError(f"array must be 1-D and non-empty: {arr.shape}")
        block = shared_memory.SharedMemory(create=True, size=arr.nbytes)
        view = np.ndarray(arr.shape, dtype=np.float64, buffer=block.buf)
        view[:] = arr
        self._blocks.append(block)
        return SharedArrayRef(name=block.name, length=arr.size)

    def close(self) -> None:
        """Unlink every block this store created."""
        blocks, self._blocks = self._blocks, []
        for block in blocks:
            block.close()
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedRecordingStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def attach_array(
    ref: SharedArrayRef,
) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach to a block and view it as a float64 array (worker side).

    Returns ``(block, array)``; the caller must keep *block* referenced
    for as long as the array (or any window sliced from it) is in use.
    The attachment is unregistered from this process's resource tracker
    because the parent store owns the block's lifetime.
    """
    if _TRACK_SUPPORTED:
        block = shared_memory.SharedMemory(name=ref.name, track=False)
    else:
        # Python < 3.13 has no ``track`` parameter and unconditionally
        # registers attachments; registering here would unbalance the
        # (fork-shared) tracker's books against the parent's unlink.
        # Suppress registration for the duration of the attach instead —
        # under the module lock, because the swap is process-global.
        with _ATTACH_LOCK:
            original_register = resource_tracker.register
            resource_tracker.register = lambda name, rtype: None
            try:
                block = shared_memory.SharedMemory(name=ref.name)
            finally:
                resource_tracker.register = original_register
    array = np.ndarray((ref.length,), dtype=np.float64, buffer=block.buf)
    array.setflags(write=False)
    return block, array
