"""Fleet-scale sharded execution of the windowed-PSA engine.

This package turns the single-process batched Welch-Lomb pipeline into
a cohort runner: recordings (or window shards of one huge recording)
spread across a pool of worker processes — and, via the socket
transport, across worker daemons on other machines — RR arrays travel
through shared memory (or the wire, once per connection), and plan
caches are warmed before the pool forks.  Every process of one run
uses the provider and batch chunk size of the runner's pinned config.

Entry points:

* :class:`~repro.fleet.runner.FleetRunner` — the cohort runner
  (``run`` / ``run_report``), built from one
  :class:`~repro.engine.EngineConfig` that it pins once and hands as it
  is to every pool process and worker daemon, scheduling over local
  pool slots and any configured remote workers;
* :class:`~repro.fleet.remote.WorkerDaemon` /
  :func:`~repro.fleet.remote.run_worker_daemon` — the cross-machine
  worker (``python -m repro worker --listen HOST:PORT``);
* :class:`~repro.fleet.remote.RemoteWorker` — the scheduler-side
  handle to one daemon;
* :func:`~repro.fleet.tuning.measure_chunk_windows` — a timing
  report of candidate chunk sizes (``python -m repro tune``);
* :func:`~repro.fleet.sharding.plan_shards` — the work decomposition.
"""

from .remote import RemoteTaskError, RemoteWorker, WorkerDaemon, run_worker_daemon
from .runner import FleetReport, FleetRunner
from .sharding import WindowShard, plan_shards
from .shm import SharedArrayRef, SharedRecordingStore, attach_array
from .transport import FrameStream, format_address, parse_address
from .tuning import ChunkTuning, measure_chunk_windows

__all__ = [
    "ChunkTuning",
    "FleetReport",
    "FleetRunner",
    "FrameStream",
    "RemoteTaskError",
    "RemoteWorker",
    "SharedArrayRef",
    "SharedRecordingStore",
    "WindowShard",
    "WorkerDaemon",
    "attach_array",
    "format_address",
    "measure_chunk_windows",
    "parse_address",
    "plan_shards",
    "run_worker_daemon",
]
