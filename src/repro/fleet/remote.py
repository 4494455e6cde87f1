"""Cross-machine fleet: the worker daemon and its client handle.

The shared-memory transport (:mod:`repro.fleet.shm`) stops at the host
boundary; this module carries the fleet's one task shape,
:class:`~repro.fleet.worker.SpanTask`, over a socket:

* :class:`WorkerDaemon` — ``python -m repro worker --listen HOST:PORT``.
  One daemon is one remote execution slot.  A connecting scheduler
  sends a ``hello`` carrying its serialized
  :class:`~repro.engine.config.EngineConfig`, pinned to what the
  scheduler resolved; the daemon builds the identical execution state
  from it with :func:`~repro.fleet.worker.worker_state`, the builder
  every pool process runs (same system geometry, same provider and
  chunk size — never re-resolved, because two hosts may auto-probe
  differently — plan caches warmed), once per connection, and then serves
  ``task`` messages: it decodes each into a ``SpanTask`` over its
  uploaded arrays, runs :func:`~repro.fleet.worker.execute_task`, the
  executor every pool and in-process slot runs, and sends back the
  result's columns as they are.  While a task computes, the daemon
  emits ``heartbeat`` frames so the scheduler can tell a slow task
  from a dead worker.

* :class:`RemoteWorker` — the scheduler-side handle: connect +
  handshake, upload each sample array once per connection
  (:meth:`RemoteWorker.ensure_array` — tasks then reference arrays by
  key, mirroring the slice-by-reference shm design), run tasks, and
  surface worker death (or a result without one row per span) as
  :class:`ConnectionError` so the scheduler can reassign the shard.

Bit-identity holds across this transport by construction: arrays travel
as raw buffers (:mod:`repro.fleet.transport`), the daemon runs the same
executor under the same provider and chunk size, and the result's
spectra and metric columns come back bit-exact.
"""

from __future__ import annotations

import os
import select
import socket
import threading
import time
import zlib

import numpy as np

from ..engine.config import EngineConfig
from ..errors import ConfigurationError, ReproError, TransportError
from ..ffts.pruning import PruningSpec
from ..hrv.metrics import MetricsBatch
from ..lomb.fast import LombBatch
from ..perf.context import execution
from ..perf.workspace import WorkspaceArena
from .transport import FrameStream, format_address, parse_address
from .worker import SpanTask, execute_task, worker_state

__all__ = [
    "RemoteTaskError",
    "RemoteWorker",
    "WorkerDaemon",
    "result_from_wire",
    "result_to_wire",
    "run_worker_daemon",
    "task_from_wire",
    "task_to_wire",
]

#: Wire-protocol revision; peers refuse a mismatch at handshake.
#: v2 added the optional per-task ``variant`` field (quality-adaptive
#: load shedding) — a v1 daemon would silently ignore it and compute
#: the wrong quality, which is exactly what the handshake check is for.
#: v3 added the optional per-task ``corrected_key`` (interpolated-beat
#: provenance) and the packed per-window ``metrics`` in every result
#: frame — a v2 daemon would answer with a result the scheduler cannot
#: unpack, so again the handshake refuses the pairing up front.
#: v4 replaced the task's one ``variant`` with a per-span column (the
#: distinct ``variants`` plus each span's ``variant_rows`` index) and
#: the packed per-group result with the kernel's columns (``spectra``
#: and ``metrics``, one row per span); a v3 peer would run a mixed task
#: at one level and could not read the result.
#: v5 reduced the ``hello`` to ``{"version", "config"}``: the config is
#: pinned (:meth:`~repro.engine.EngineConfig.pinned`), so the separate
#: ``provider``, ``chunk_windows`` and ``arena`` keys that repeated its
#: fields are gone; a v4 peer would send (or expect) them.
PROTOCOL_VERSION = 5

#: Seconds between ``heartbeat`` frames while a task computes.
HEARTBEAT_INTERVAL = 1.0

#: Default client-side socket timeout (seconds).  With heartbeats every
#: :data:`HEARTBEAT_INTERVAL` seconds, a healthy daemon is never silent
#: for more than a couple of seconds — a full timeout means the worker
#: process (or its host) is gone and the shard must be reassigned.
DEFAULT_TIMEOUT = 15.0

#: Bounded-backoff defaults for :meth:`RemoteWorker.reconnect`: attempt
#: ``i`` sleeps ``min(RECONNECT_MAX_DELAY, RECONNECT_BASE_DELAY * 2**i)``
#: plus a deterministic per-address jitter before dialling.
RECONNECT_ATTEMPTS = 3
RECONNECT_BASE_DELAY = 0.05
RECONNECT_MAX_DELAY = 1.0


def task_to_wire(task: SpanTask) -> dict:
    """A task's ``task`` frame payload: plain data and int64 arrays.

    Variants cross as the distinct levels — ``None`` or a plain
    ``{"system", "pruning"}`` dict, because the frame codec carries no
    custom classes — plus each span's index into them.
    """
    payload = {
        "task_id": int(task.task_id),
        "times_key": int(task.times_key),
        "values_key": int(task.values_key),
        "spans": np.asarray(task.spans, dtype=np.int64).reshape(-1, 2),
        "count_ops": bool(task.count_ops),
        "variants": None,
        "variant_rows": None,
        "corrected_key": task.corrected_key,
    }
    if task.variants is not None:
        levels = list(dict.fromkeys(task.variants))
        payload["variants"] = [
            None if level is None
            else {"system": level[0], "pruning": level[1].to_dict()}
            for level in levels
        ]
        payload["variant_rows"] = np.array(
            [levels.index(variant) for variant in task.variants], np.int64
        )
    return payload


def task_from_wire(payload: dict) -> SpanTask:
    """The :class:`SpanTask` a :func:`task_to_wire` payload describes."""
    spans = tuple((int(lo), int(hi)) for lo, hi in payload["spans"])
    variants = None
    if payload.get("variants") is not None:
        levels = [
            None if level is None
            else (level["system"], PruningSpec.from_dict(level["pruning"]))
            for level in payload["variants"]
        ]
        variants = tuple(levels[k] for k in payload["variant_rows"].tolist())
        if len(variants) != len(spans):
            raise TransportError(f"{len(variants)} variants, {len(spans)} spans")
    corrected_key = payload.get("corrected_key")
    return SpanTask(
        task_id=payload.get("task_id"),
        times_key=int(payload["times_key"]),
        values_key=int(payload["values_key"]),
        spans=spans,
        count_ops=bool(payload.get("count_ops", False)),
        variants=variants,
        corrected_key=None if corrected_key is None else int(corrected_key),
    )


def result_to_wire(spectra: LombBatch, metrics: MetricsBatch) -> dict:
    """A task result's columns, as the ``result`` frame carries them."""
    return {"spectra": spectra.columns(), "metrics": metrics.columns()}


def result_from_wire(payload: dict, rows: int):
    """The ``(LombBatch, MetricsBatch)`` of a ``result`` payload.

    Every column must hold ``rows`` entries, one per span of the task:
    anything else is a :class:`TransportError`, never a misalignment.
    """
    try:
        spectra = LombBatch(**payload["spectra"])
        metrics = MetricsBatch(**payload["metrics"])
    except (KeyError, TypeError) as exc:
        raise TransportError(f"malformed result columns: {exc}") from exc
    columns = (*spectra.columns().values(), *metrics.columns().values())
    shapes = {np.shape(column)[:1] for column in columns if column is not None}
    if shapes != {(rows,)}:
        raise TransportError(f"result rows {sorted(shapes)} for {rows} spans")
    return spectra, metrics


class RemoteTaskError(ReproError):
    """A task failed *inside* a healthy worker daemon.

    Distinct from :class:`ConnectionError` (worker death) on purpose:
    an analysis error is deterministic — the same shard would fail on
    any worker — so the scheduler aborts instead of retrying it
    elsewhere.
    """


# ----------------------------------------------------------------------
# Daemon (server) side
# ----------------------------------------------------------------------


class WorkerDaemon:
    """A socket-serving fleet worker: one remote execution slot.

    Parameters
    ----------
    host, port:
        Listen address; port 0 binds an ephemeral port (the bound port
        is in :attr:`port` / :attr:`address` after construction).
    heartbeat_interval:
        Seconds between heartbeat frames while a task computes.

    Use :meth:`serve_forever` as a process entry point
    (:func:`run_worker_daemon`) or :meth:`start`/:meth:`close` to run
    the accept loop on a background thread (tests, notebooks).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
    ):
        self._listener = socket.create_server(
            (host, int(port)), reuse_port=False
        )
        self._listener.settimeout(0.2)
        self.host = host
        self.port = int(self._listener.getsockname()[1])
        self.heartbeat_interval = float(heartbeat_interval)
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        # One task computes at a time: a daemon is one worker slot, the
        # remote analogue of one pool process (schedulers wanting more
        # slots per host run more daemons).
        self._exec_lock = threading.Lock()
        # Kernel temporaries of every connection whose config asks for
        # an arena lease from this one (thread-safe) pool.
        self._arena = WorkspaceArena()

    @property
    def address(self) -> str:
        """The ``host:port`` this daemon listens on."""
        return format_address(self.host, self.port)

    # -- lifecycle -----------------------------------------------------

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`close` (blocking)."""
        while not self._stop.is_set():
            try:
                conn, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us: shutting down
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._conn_threads.append(thread)
            self._conn_threads = [
                t for t in self._conn_threads if t.is_alive()
            ]

    def start(self) -> "WorkerDaemon":
        """Run :meth:`serve_forever` on a background thread."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, close the listener and join serving threads."""
        self._stop.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close never fails in practice
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        for thread in self._conn_threads:
            thread.join(timeout=5.0)
        self._conn_threads = []

    def __enter__(self) -> "WorkerDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- connection protocol -------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = FrameStream(conn)
        # Waiting for the *next* message polls with select so close()
        # is noticed promptly; once a frame starts arriving the stream
        # timeout below bounds mid-frame stalls.  A timeout must never
        # fire between the chunks of one frame and leave the stream
        # desynchronised, which is why the idle wait happens out here.
        stream.settimeout(60.0)
        state: dict = {"welch": None, "arrays": {}}
        try:
            while not self._stop.is_set():
                try:
                    ready, _, _ = select.select([conn], [], [], 0.2)
                except (OSError, ValueError):
                    return  # connection closed under us mid-session
                if not ready:
                    continue
                try:
                    kind, payload = stream.recv()
                except socket.timeout:
                    return
                except (ConnectionError, TransportError):
                    return
                if kind == "ping":
                    stream.send(
                        "pong",
                        {"pid": os.getpid(), "version": PROTOCOL_VERSION},
                    )
                elif kind == "hello":
                    if not self._handshake(stream, payload, state):
                        return
                elif kind == "array":
                    key, data = payload.get("key"), payload.get("data")
                    if type(key) is int and isinstance(data, np.ndarray):
                        state["arrays"][key] = data
                    else:
                        message = "array frame needs an integer key and data"
                        stream.send("error", {"message": message})
                elif kind == "reset":
                    state["arrays"].clear()
                elif kind == "task":
                    self._run_task(stream, payload, state)
                elif kind == "bye":
                    return
                else:
                    stream.send(
                        "error", {"message": f"unknown message kind {kind!r}"}
                    )
        finally:
            stream.close()

    def _handshake(self, stream, payload, state) -> bool:
        """Install the client's execution state; False ends the session.

        The ``hello`` is ``{"version", "config"}``; the config must be
        pinned (:func:`~repro.fleet.worker.worker_state` refuses it
        otherwise) and is never re-resolved here.
        """
        try:
            version = payload.get("version")
            if version != PROTOCOL_VERSION:
                raise TransportError(
                    f"protocol version mismatch: daemon speaks "
                    f"{PROTOCOL_VERSION}, client sent {version!r}"
                )
            if set(payload) != {"version", "config"}:
                raise TransportError(
                    f"hello carries version and config only, got "
                    f"{sorted(payload)}"
                )
            config = EngineConfig.from_dict(payload["config"])
            welch, context = worker_state(config, self._arena)
            state.update(
                welch=welch, context=context, arrays={}, config=config
            )
        except ReproError as exc:
            try:
                stream.send("error", {"message": str(exc)})
            except ConnectionError:
                pass
            return False
        stream.send(
            "ready",
            {
                "pid": os.getpid(),
                "version": PROTOCOL_VERSION,
                "provider": state["context"].provider,
                "chunk_windows": state["context"].chunk_windows,
            },
        )
        return True

    def _run_task(self, stream, payload, state) -> None:
        """Execute one span-batch task, heartbeating while it computes."""
        if state["welch"] is None:
            stream.send(
                "error", {"message": "task before hello: no engine installed"}
            )
            return
        task_id = payload.get("task_id")
        outcome: dict = {}
        compute = threading.Thread(
            target=self._compute, args=(payload, state, outcome), daemon=True
        )
        compute.start()
        while compute.is_alive():
            compute.join(self.heartbeat_interval)
            if compute.is_alive():
                try:
                    stream.send("heartbeat", {})
                except ConnectionError:
                    # Client gone: let the task finish (it is already
                    # running), drop the result, end the session.
                    compute.join()
                    return
        if "error" in outcome:
            stream.send("error", {"task_id": task_id, "message": outcome["error"]})
        else:
            stream.send(
                "result",
                dict(result_to_wire(*outcome["result"]), task_id=task_id),
            )

    def _compute(self, payload, state, outcome: dict) -> None:
        try:
            task = task_from_wire(payload)
            arrays = state["arrays"]
            for key in task.array_keys:
                if key not in arrays:
                    raise TransportError(
                        f"task references unknown array key {key!r}"
                    )
            with self._exec_lock, execution(state["context"]):
                outcome["result"] = execute_task(
                    task, arrays, state["welch"], state["config"]
                )
        except Exception as exc:  # deterministic task failure, not death
            outcome["error"] = f"{type(exc).__name__}: {exc}"


def run_worker_daemon(
    listen: str, heartbeat_interval: float = HEARTBEAT_INTERVAL
) -> int:
    """CLI entry point: serve ``python -m repro worker --listen HOST:PORT``.

    Prints the bound address (``--listen host:0`` picks an ephemeral
    port) and serves until interrupted.  ``heartbeat_interval``
    (``--heartbeat-interval``) sets the seconds between heartbeat
    frames while a task computes — pair a longer interval with a larger
    scheduler-side ``worker_timeout``.
    """
    if not float(heartbeat_interval) > 0:
        raise ConfigurationError(
            f"heartbeat interval must be > 0, got {heartbeat_interval}"
        )
    if ":" in listen:
        host, port = parse_address(listen, allow_ephemeral=True)
    else:
        host, port = listen, 0
    daemon = WorkerDaemon(
        host=host, port=port, heartbeat_interval=float(heartbeat_interval)
    )
    print(f"worker daemon pid {os.getpid()} listening on {daemon.address}",
          flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.close()
    return 0


# ----------------------------------------------------------------------
# Scheduler (client) side
# ----------------------------------------------------------------------


class RemoteWorker:
    """Scheduler-side handle to one worker daemon.

    Parameters
    ----------
    address:
        ``host:port`` of a listening :class:`WorkerDaemon`.
    timeout:
        Socket timeout (seconds) for connect and for each received
        frame.  Heartbeats arrive every :data:`HEARTBEAT_INTERVAL`
        seconds during computation, so a timeout fires only when the
        worker is genuinely unreachable.

    All failures that mean *this worker is gone* surface as
    :class:`ConnectionError`; deterministic task failures surface as
    :class:`RemoteTaskError` (see there for why the split matters).
    """

    def __init__(self, address: str, timeout: float = DEFAULT_TIMEOUT):
        self.address = address
        self.host, self.port = parse_address(address)
        self.timeout = float(timeout)
        self._stream: FrameStream | None = None
        self._sent_arrays: set[int] = set()
        self._closed_sent = 0
        self._closed_received = 0
        self.info: dict = {}
        #: Successful connections after the first (cumulative).
        self.reconnects = 0
        #: Failed connection attempts (cumulative).
        self.connect_failures = 0
        self._ever_connected = False

    @property
    def connected(self) -> bool:
        """Whether a handshaken connection is currently open."""
        return self._stream is not None

    @property
    def bytes_sent(self) -> int:
        """Bytes sent to this worker, cumulative across reconnects."""
        live = self._stream.bytes_sent if self._stream is not None else 0
        return self._closed_sent + live

    @property
    def bytes_received(self) -> int:
        """Bytes received from this worker, cumulative across reconnects."""
        live = self._stream.bytes_received if self._stream is not None else 0
        return self._closed_received + live

    def connect(self, config: EngineConfig) -> dict:
        """Connect and handshake; returns the daemon's ``ready`` payload.

        ``config`` is the scheduler's pinned
        :class:`~repro.engine.EngineConfig`, the ``hello``'s only
        content (see :meth:`WorkerDaemon._handshake`).  Raises
        :class:`ConnectionError` if the daemon is unreachable and
        :class:`~repro.errors.ConfigurationError` if it refuses the
        configuration (these are not retried: the worker is healthy,
        the request is wrong).
        """
        self.close()
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            self.connect_failures += 1
            raise ConnectionError(
                f"cannot reach fleet worker {self.address}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = FrameStream(sock)
        stream.settimeout(self.timeout)
        try:
            stream.send(
                "hello",
                {"version": PROTOCOL_VERSION, "config": config.to_dict()},
            )
            kind, payload = self._recv_content(stream)
        except (ConnectionError, TransportError, socket.timeout) as exc:
            stream.close()
            self.connect_failures += 1
            raise ConnectionError(
                f"handshake with fleet worker {self.address} failed: {exc}"
            ) from exc
        if kind == "error":
            stream.close()
            raise ConfigurationError(
                f"fleet worker {self.address} refused the configuration: "
                f"{payload.get('message')}"
            )
        if kind != "ready":
            stream.close()
            raise TransportError(
                f"fleet worker {self.address} answered hello with {kind!r}"
            )
        self._stream = stream
        self._sent_arrays = set()
        self.info = payload
        if self._ever_connected:
            self.reconnects += 1
        self._ever_connected = True
        return payload

    def reconnect(
        self,
        config: EngineConfig,
        attempts: int = RECONNECT_ATTEMPTS,
        base_delay: float = RECONNECT_BASE_DELAY,
        max_delay: float = RECONNECT_MAX_DELAY,
    ) -> dict:
        """Re-dial a dead worker with bounded exponential backoff.

        Attempt ``i`` sleeps ``min(max_delay, base_delay * 2**i)`` plus
        a deterministic jitter (hashed from the address and attempt
        number, up to half the delay — reproducible runs, but a fleet
        of schedulers dialling one rebooted daemon still doesn't dial
        in lockstep) before calling :meth:`connect`.  Returns the
        ``ready`` payload of the first attempt that lands; raises the
        last :class:`ConnectionError` when every attempt fails.
        ``ConfigurationError`` (the daemon answered and *refused*) is
        not retried — the worker is healthy, the request is wrong.

        The connection is fully re-handshaken and the daemon's array
        uploads start from scratch (:meth:`ensure_array` re-uploads on
        first reference), so a caller can resume exactly where the
        death interrupted it.
        """
        last: ConnectionError | None = None
        for attempt in range(int(attempts)):
            delay = min(float(max_delay), float(base_delay) * (2 ** attempt))
            seed = zlib.crc32(f"{self.address}#{attempt}".encode())
            time.sleep(delay * (1.0 + 0.5 * (seed % 1000) / 1000.0))
            try:
                return self.connect(config)
            except ConnectionError as exc:
                last = exc
        raise ConnectionError(
            f"fleet worker {self.address} still unreachable after "
            f"{attempts} reconnect attempts: {last}"
        )

    @staticmethod
    def _recv_content(stream: FrameStream) -> tuple[str, dict]:
        """Next non-heartbeat message (heartbeats only reset the timeout)."""
        while True:
            kind, payload = stream.recv()
            if kind != "heartbeat":
                return kind, payload

    def _require_stream(self) -> FrameStream:
        if self._stream is None:
            raise ConnectionError(
                f"fleet worker {self.address} is not connected"
            )
        return self._stream

    def reset_arrays(self) -> None:
        """Clear the daemon's uploaded arrays (and our sent-key record).

        Array keys are per-run indices, so a persistent connection must
        be reset between runs — otherwise run N+1's key 0 would silently
        resolve to run N's array on the daemon side.  The reset is
        confirmed with a ping round-trip: a one-way send into a
        half-dead socket succeeds (it only fills the local buffer), and
        a run must not count a worker that cannot answer.
        """
        self._sent_arrays = set()
        stream = self._require_stream()
        try:
            stream.send("reset", {})
            stream.send("ping", {})
            kind, _payload = self._recv_content(stream)
        except (ConnectionError, TransportError, socket.timeout) as exc:
            self._drop()
            raise ConnectionError(
                f"fleet worker {self.address} did not confirm reset: {exc}"
            ) from exc
        if kind != "pong":
            self._drop()
            raise ConnectionError(
                f"fleet worker {self.address} answered ping with {kind!r}"
            )

    def ensure_array(self, key: int, array: np.ndarray) -> None:
        """Upload one sample array unless this connection already has it.

        Tasks then reference the array by ``key`` — the socket analogue
        of the shm store's slice-by-reference protocol: arrays cross
        the wire once per connection, spans are just index pairs.
        """
        if key in self._sent_arrays:
            return
        stream = self._require_stream()
        try:
            stream.send("array", {"key": int(key), "data": array})
        except ConnectionError:
            self._drop()
            raise
        self._sent_arrays.add(key)

    def run_task(self, task: SpanTask) -> tuple[LombBatch, MetricsBatch]:
        """Run one span-batch task remotely.

        Returns the ``(LombBatch, MetricsBatch)`` pair
        :func:`~repro.fleet.worker.execute_task` returns on every other
        slot, so schedulers merge all transports identically.  The
        task's arrays must have been uploaded (:meth:`ensure_array`),
        and its per-span variants select degraded quality levels'
        kernels on the daemon side.  Raises :class:`ConnectionError`
        (worker died, timed out, or answered with a result that is not
        one row per span — reassign the task) or
        :class:`RemoteTaskError` (the task itself failed — do not retry
        elsewhere).
        """
        stream = self._require_stream()
        try:
            stream.send("task", task_to_wire(task))
            kind, payload = self._recv_content(stream)
            if kind == "result":
                return result_from_wire(payload, len(task.spans))
        except socket.timeout as exc:
            self._drop()
            raise ConnectionError(
                f"fleet worker {self.address} went silent for more than "
                f"{self.timeout:.0f}s (no heartbeat): presumed dead"
            ) from exc
        except (ConnectionError, TransportError) as exc:
            self._drop()
            if isinstance(exc, ConnectionError):
                raise
            raise ConnectionError(
                f"fleet worker {self.address} broke protocol: {exc}"
            ) from exc
        if kind == "error":
            raise RemoteTaskError(
                f"task {task.task_id} failed on fleet worker {self.address}: "
                f"{payload.get('message')}"
            )
        self._drop()
        raise ConnectionError(
            f"fleet worker {self.address} answered task with {kind!r}"
        )

    def _drop(self) -> None:
        stream, self._stream = self._stream, None
        self._sent_arrays = set()
        if stream is not None:
            self._closed_sent += stream.bytes_sent
            self._closed_received += stream.bytes_received
            stream.close()

    def close(self) -> None:
        """Say goodbye (best-effort) and close the connection."""
        stream = self._stream
        if stream is not None:
            try:
                stream.send("bye", {})
            except ConnectionError:
                pass
        self._drop()
