"""Steady-state performance subsystem: execution context, arenas, profiling.

Three cooperating pieces keep the streaming hot path allocation-free at
steady state and make the win observable:

* :mod:`repro.perf.context` — :class:`ExecutionContext`, the immutable
  provider / chunk size / arena / profiler a kernel call runs under,
  held in one :class:`contextvars.ContextVar` (so threads never share
  it) and scoped with :func:`execution`.
* :mod:`repro.perf.workspace` — :class:`WorkspaceArena`, a
  shape/dtype-keyed pool of reusable buffers; kernels lease temporaries
  through :class:`Scratch` so one code path serves both pooled and
  plain allocation (arena-on ≡ arena-off bit-for-bit by construction).
* :mod:`repro.perf.profiler` — :class:`StageProfiler`, near-zero
  overhead-when-disabled timing/allocation spans around extirpolation,
  FFT dispatch, Lomb combine, assemble and hub flush, surfaced via
  ``python -m repro profile`` and ``EngineConfig(profile=True)``.
"""

from repro.perf.context import ExecutionContext, current_execution, execution
from repro.perf.profiler import (
    LatencyWindow,
    StageProfiler,
    get_active_profiler,
    set_active_profiler,
    span,
)
from repro.perf.workspace import Scratch, WorkspaceArena, carve, scratch

__all__ = [
    "ExecutionContext",
    "LatencyWindow",
    "Scratch",
    "StageProfiler",
    "WorkspaceArena",
    "carve",
    "current_execution",
    "execution",
    "get_active_profiler",
    "scratch",
    "set_active_profiler",
    "span",
]
