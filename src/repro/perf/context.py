"""The execution context: what a kernel call runs under.

The FFT execution provider, the batched path's windows per sub-batch,
the workspace arena kernel temporaries lease from and the stage
profiler spans report to travel together in one immutable
:class:`ExecutionContext`, held in one :class:`contextvars.ContextVar`:
every thread (and every asyncio task) sees its own, so two engines
driven from two threads never overwrite each other's settings.

:func:`execution` is the one scope helper: ``with execution(ctx):``
enters ``ctx``, ``with execution(chunk_windows=64):`` derives a context
from the current one, and the previous context comes back on exit.
An :class:`~repro.engine.Engine` enters a context whose provider and
chunk size its own config resolved, and a
:class:`~repro.fleet.FleetRunner` and its workers run under the
provider and chunk size of their pinned config, so the ambient context
only governs code that runs outside any engine or runner — a raw
:class:`~repro.lomb.fast.FastLomb` or
:meth:`~repro.lomb.welch.WelchLomb.analyze_windows` call.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .._validation import require_integer
from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .profiler import StageProfiler
    from .workspace import WorkspaceArena

__all__ = [
    "ExecutionContext",
    "current_execution",
    "execution",
    "set_execution",
]


@dataclass(frozen=True)
class ExecutionContext:
    """Immutable execution settings of the code running under it.

    Attributes
    ----------
    provider:
        FFT execution provider name (validated: registered and
        available on this host), or ``None`` for the
        ``REPRO_FFT_PROVIDER`` pin, then ``numpy``.
    chunk_windows:
        Windows per sub-batch of the batched kernel (an integer >= 1),
        or ``None`` for the ``REPRO_BATCH_CHUNK_WINDOWS`` pin, then
        :data:`~repro.lomb.fast.BATCH_CHUNK_WINDOWS`.
    arena:
        :class:`~repro.perf.workspace.WorkspaceArena` kernel
        temporaries lease from, or ``None`` for plain allocation.
    profiler:
        :class:`~repro.perf.profiler.StageProfiler` hot-path spans
        report to, or ``None`` for the process-wide observer.
    """

    provider: str | None = None
    chunk_windows: int | None = None
    arena: WorkspaceArena | None = None
    profiler: StageProfiler | None = None

    def __post_init__(self):
        if self.provider is not None:
            # Imported here: the registry reads this module's context.
            from ..ffts.providers import registry

            name = registry.require_known(self.provider)
            if not registry.provider_available(name):
                raise ConfigurationError(
                    f"cannot pin unavailable FFT provider {name!r}"
                )
            object.__setattr__(self, "provider", name)
        if self.chunk_windows is not None:
            chunk = require_integer(self.chunk_windows, "batch chunk size")
            if chunk < 1:
                raise ConfigurationError(
                    f"batch chunk size must be >= 1, got {chunk}"
                )
            object.__setattr__(self, "chunk_windows", chunk)


#: The context of the running code; a new thread starts at the default.
_current: ContextVar[ExecutionContext] = ContextVar(
    "repro_execution", default=ExecutionContext()
)


def current_execution() -> ExecutionContext:
    """The :class:`ExecutionContext` the calling code runs under."""
    return _current.get()


@contextmanager
def execution(context: ExecutionContext | None = None, /, **changes):
    """Run the calling block under ``context`` with ``changes`` applied.

    ``context`` defaults to the current context, so
    ``execution(chunk_windows=64)`` pins one field and keeps the rest;
    ``changes`` go through :func:`dataclasses.replace` (validated like
    a new context).  Yields the entered context and restores the
    previous one on exit.
    """
    if context is None:
        context = _current.get()
    if changes:
        context = replace(context, **changes)
    token = _current.set(context)
    try:
        yield context
    finally:
        _current.reset(token)


def set_execution(context: ExecutionContext) -> None:
    """Install ``context`` for the rest of the calling thread's work.

    For process initialisers only (:func:`repro.fleet.worker.init_worker`
    runs every task of its pool process under the context it sets);
    everything else scopes with :func:`execution`.
    """
    _current.set(context)
