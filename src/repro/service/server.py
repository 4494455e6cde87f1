"""The asyncio ingestion gateway: framed streams + REST over StreamHub.

:class:`GatewayServer` turns the in-process streaming machinery into a
deployable network front end.  One listening port serves two protocols,
dispatched on the first byte of each connection:

* ``{`` — the framed newline-JSON stream protocol of
  :mod:`repro.service.wire`: a ``hello`` (tenant + token + subject)
  binds the connection to one subject of one tenant's
  :class:`~repro.engine.hub.StreamHub`, ``feed`` frames push beat
  batches through :meth:`AsyncStreamingSession.feed` (the hub's shared
  cross-subject batch), completed windows come back down the same
  connection as ``window`` frames, and ``finalize`` returns the full
  bit-identical :class:`~repro.core.system.PSAResult`.
* an ASCII letter (``GET`` / ``POST``) — a minimal stdlib HTTP/1.1
  REST gateway: ``POST /v1/analyze`` (whole recording in, result out),
  ``GET /v1/subjects/<id>/windows``, ``GET /v1/stats``.  No
  third-party web framework; the parser speaks exactly the subset the
  documented endpoints need and closes every connection after one
  response.

Tenancy and isolation
---------------------
Tenants (static bearer tokens, see
:class:`~repro.service.config.ServiceConfig`) get fully isolated
engines and hubs, created lazily on first authenticated use and
reference-counted: when a tenant's last stream connection detaches, its
engine's fleet pool is released (the hub and its sessions survive, so
REST queries and reconnecting feeders keep working; the pool re-forks
on demand).  A dropped connection does **not** finalize its subject —
the session stays on the hub and a later ``hello`` for the same subject
re-attaches and resumes exactly where the disconnect interrupted it.

Backpressure is end to end: emission queues are bounded
(:mod:`repro.engine.aio`), the per-connection pump awaits
``writer.drain()``, so a client that stops reading eventually stalls
its own feeds — never the server's memory.

Graceful drain
--------------
:meth:`GatewayServer.shutdown` (and SIGTERM/SIGINT under ``python -m
repro serve``) stops accepting, finalizes every tenant's subjects —
trailing windows in the usual shared batches, results delivered to
still-connected clients as ``result`` frames followed by ``shutdown``
— then closes hubs and fleet pools.  Because finalization routes
through the same choke point as everything else, a drained mid-stream
subject's result is bit-identical to the uninterrupted run.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import threading

import numpy as np

from ..engine import Engine
from ..engine.aio import _drain
from ..errors import ConfigurationError, ServiceError, SignalError
from ..hrv.rr import RRSeries
from .config import ServiceConfig
from .wire import (
    decode_frame,
    emission_to_frame,
    encode_frame,
    result_to_dict,
)

__all__ = ["GatewayServer", "GatewayThread"]


class _Tenant:
    """One tenant's isolated runtime: engine, hub, results, refcount."""

    def __init__(self, spec, count_ops: bool):
        self.spec = spec
        self.engine = Engine(spec.engine)
        self.hub = self.engine.open_hub(count_ops=count_ops)
        #: Live stream connections bound to this tenant; when it drops
        #: to zero the fleet pool is released (the hub survives).
        self.connections = 0
        #: Finalized results in wire form, keyed by subject — served by
        #: REST after the stream that produced them is long gone.
        self.results: dict = {}
        #: Subjects the graceful drain could not finalize (too short),
        #: with the reason — surfaced in stats instead of vanishing.
        self.drain_errors: dict = {}


class _StreamConn:
    """Bookkeeping for one live framed-stream connection."""

    def __init__(self, tenant_name: str, subject, writer):
        self.tenant_name = tenant_name
        self.subject = subject
        self.writer = writer
        #: The connection's emission-pump task; the graceful drain
        #: awaits it so tail windows precede the pushed result frame.
        self.pump: asyncio.Future | None = None


class GatewayServer:
    """Asyncio gateway serving framed streams and REST over one port.

    Typical embedded use (tests, notebooks)::

        server = GatewayServer(ServiceConfig(listen="127.0.0.1:0"))
        await server.start()
        print(server.address)       # the bound host:port
        ...
        await server.shutdown()     # graceful drain

    For a blocking foreground process use :meth:`serve_forever` (which
    returns once a concurrent :meth:`shutdown` completes), or the CLI:
    ``python -m repro serve --listen HOST:PORT [--config service.json]``.
    Threaded callers (synchronous tests and benchmarks) want
    :class:`GatewayThread`.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self._config = config or ServiceConfig()
        self._tenants: dict[str, _Tenant] = {}
        self._server: asyncio.base_events.Server | None = None
        self._conns: set[_StreamConn] = set()
        self._shutting_down = False
        self._stopped: asyncio.Event | None = None
        self._wire = {
            "connections": 0,
            "rejected": 0,
            "frames_in": 0,
            "frames_out": 0,
            "bytes_in": 0,
            "bytes_out": 0,
            "http_requests": 0,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def address(self) -> str:
        """The bound ``host:port`` (resolves port 0 after :meth:`start`)."""
        if self._server is None:
            raise ServiceError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return f"{host}:{port}"

    def stats(self) -> dict:
        """Service-level wire counters and per-tenant summary."""
        return {
            "wire": dict(self._wire),
            "tenants": {
                name: {
                    "connections": tenant.connections,
                    "subjects": list(tenant.hub.subjects),
                    "results": sorted(tenant.results),
                    "drain_errors": dict(tenant.drain_errors),
                }
                for name, tenant in self._tenants.items()
            },
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "GatewayServer":
        """Bind the listen address and start accepting connections."""
        if self._server is not None:
            raise ServiceError("server is already started")
        from ..fleet.transport import parse_address

        host, port = parse_address(self._config.listen, allow_ephemeral=True)
        self._stopped = asyncio.Event()
        # The reader limit doubles as the frame-size guard: a line
        # longer than max_frame_bytes makes readline raise instead of
        # buffering without bound.
        self._server = await asyncio.start_server(
            self._handle_connection, host, port,
            limit=self._config.max_frame_bytes,
        )
        return self

    async def serve_forever(self) -> None:
        """Block until a concurrent :meth:`shutdown` completes."""
        if self._stopped is None:
            raise ServiceError("server is not started")
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finalize everything, close.

        Every tenant's open subjects are finalized — results pushed to
        still-connected stream clients (``result`` then ``shutdown``
        frames) and retained for REST — then hubs close and fleet pools
        are released.  Idempotent; concurrent callers all return once
        the drain completes.
        """
        if self._shutting_down:
            await self._stopped.wait()
            return
        self._shutting_down = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            for tenant in self._tenants.values():
                await self._drain_tenant(tenant)
            # Results (or shutdown alone) to whoever is still connected.
            for conn in list(self._conns):
                await self._notify_shutdown(conn)
        finally:
            for tenant in self._tenants.values():
                tenant.hub.close()
                tenant.engine.close()
            if self._stopped is not None:
                self._stopped.set()

    async def _drain_tenant(self, tenant: _Tenant) -> None:
        """Finalize every open subject of one tenant, shared-batch style."""
        hub = tenant.hub
        if not hub._sessions:
            return
        # Deliver everything already completed before finalizing, so
        # connected consumers see their windows in order ahead of any
        # tail delivery.
        await _drain(hub)
        for subject in list(hub.subjects):
            if subject in tenant.results:
                continue
            async_session = hub._async_sessions.get(subject)
            try:
                if async_session is not None:
                    # The async path delivers the tail windows to the
                    # still-attached connection before ending its
                    # iteration.
                    result = await async_session.finalize()
                else:
                    result = hub.finalize(subject)
            except SignalError as exc:
                # A too-short subject must not poison the drain of its
                # siblings; record the reason and move on.
                tenant.drain_errors[subject] = str(exc)
                continue
            tenant.results[subject] = result_to_dict(result)

    async def _notify_shutdown(self, conn: _StreamConn) -> None:
        tenant = self._tenants.get(conn.tenant_name)
        if conn.pump is not None and not conn.pump.done():
            # Finalizing the subject ended its async iteration; wait for
            # the pump to flush the tail windows down the socket so the
            # result frame never overtakes them.
            try:
                await asyncio.wait_for(asyncio.shield(conn.pump), 60)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                pass
        try:
            if tenant is not None and conn.subject in tenant.results:
                await self._send(conn.writer, {
                    "op": "result",
                    "subject": conn.subject,
                    **tenant.results[conn.subject],
                })
            reason = None
            if tenant is not None:
                reason = tenant.drain_errors.get(conn.subject)
            await self._send(conn.writer, {
                "op": "shutdown",
                **({} if reason is None else {"error": reason}),
            })
            # Half-close: the client reads its frames up to a clean
            # EOF.  A hard close here could RST the connection (unread
            # in-flight client frames) and junk the very result we
            # just delivered.
            if conn.writer.can_write_eof():
                conn.writer.write_eof()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------

    def _authenticate(self, tenant_name, token):
        """Resolve tenant by name + constant-time token check."""
        if not isinstance(tenant_name, str) or not isinstance(token, str):
            raise ServiceError("authentication failed")
        try:
            spec = self._config.tenant(tenant_name)
        except ConfigurationError:
            # Burn a comparison anyway so an unknown tenant name is not
            # distinguishable from a bad token by timing.
            hmac.compare_digest(token, token)
            raise ServiceError("authentication failed") from None
        if not hmac.compare_digest(
            token.encode("utf-8"), spec.token.encode("utf-8")
        ):
            raise ServiceError("authentication failed")
        return spec

    def _authenticate_token(self, token):
        """Resolve a tenant by bearer token alone (REST path)."""
        if not isinstance(token, str) or not token:
            raise ServiceError("authentication failed")
        matched = None
        for spec in self._config.tenants:
            # Constant-time per candidate, and every candidate is
            # checked — no early exit to time-probe the tenant list.
            if hmac.compare_digest(
                token.encode("utf-8"), spec.token.encode("utf-8")
            ):
                matched = spec
        if matched is None:
            raise ServiceError("authentication failed")
        return matched

    def _tenant(self, spec) -> _Tenant:
        """The tenant's runtime, created lazily on first use."""
        tenant = self._tenants.get(spec.name)
        if tenant is None:
            tenant = _Tenant(spec, count_ops=self._config.count_ops)
            self._tenants[spec.name] = tenant
        return tenant

    # ------------------------------------------------------------------
    # Connection dispatch
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._wire["connections"] += 1
        try:
            if self._shutting_down:
                return
            try:
                first = await asyncio.wait_for(
                    reader.readexactly(1), self._config.hello_timeout
                )
            except (
                asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, OSError,
            ):
                return
            if first == b"{":
                await self._handle_stream(reader, writer, first)
            else:
                await self._handle_http(reader, writer, first)
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, writer, frame: dict) -> None:
        data = encode_frame(frame)
        writer.write(data)
        self._wire["frames_out"] += 1
        self._wire["bytes_out"] += len(data)
        await writer.drain()

    async def _read_frame(self, reader, first: bytes = b"") -> dict | None:
        """Read one newline-JSON frame; ``None`` on EOF.

        An over-limit line raises :class:`ServiceError` (fatal for the
        connection); malformed JSON likewise.
        """
        try:
            line = first + await reader.readline()
        except ValueError:
            # StreamReader's limit tripped: the line exceeds
            # max_frame_bytes and the rest of the buffer is garbage.
            raise ServiceError(
                f"frame exceeds max_frame_bytes="
                f"{self._config.max_frame_bytes}"
            ) from None
        if not line.strip():
            return None
        self._wire["frames_in"] += 1
        self._wire["bytes_in"] += len(line)
        return decode_frame(line)

    # ------------------------------------------------------------------
    # Framed stream protocol
    # ------------------------------------------------------------------

    async def _handle_stream(self, reader, writer, first: bytes) -> None:
        # The hello must arrive promptly — half-open connections are
        # dropped, not accumulated.
        try:
            hello = await asyncio.wait_for(
                self._read_frame(reader, first), self._config.hello_timeout
            )
        except asyncio.TimeoutError:
            self._wire["rejected"] += 1
            await self._fatal(writer, "hello timeout")
            return
        except ServiceError as exc:
            self._wire["rejected"] += 1
            await self._fatal(writer, str(exc))
            return
        if hello is None or hello.get("op") != "hello":
            self._wire["rejected"] += 1
            await self._fatal(writer, "expected hello frame")
            return
        subject = hello.get("subject")
        if not isinstance(subject, str) or not subject:
            self._wire["rejected"] += 1
            await self._fatal(writer, "hello needs a non-empty subject")
            return
        try:
            spec = self._authenticate(hello.get("tenant"), hello.get("token"))
        except ServiceError as exc:
            self._wire["rejected"] += 1
            await self._fatal(writer, str(exc))
            return
        tenant = self._tenant(spec)
        try:
            async_session = tenant.hub.open_async(subject, attach=True)
        except SignalError as exc:
            # Live-consumer conflict or closed hub: this connection is
            # refused, its siblings are untouched.
            self._wire["rejected"] += 1
            await self._fatal(writer, str(exc))
            return
        tenant.connections += 1
        conn = _StreamConn(spec.name, subject, writer)
        self._conns.add(conn)
        pump = asyncio.ensure_future(
            self._pump_emissions(async_session, subject, writer)
        )
        conn.pump = pump
        try:
            await self._send(writer, {
                "op": "ready", "tenant": spec.name, "subject": subject,
            })
            await self._stream_loop(
                reader, writer, tenant, subject, async_session, pump
            )
        except (ConnectionError, OSError):
            pass
        finally:
            self._conns.discard(conn)
            # Detach without finalizing: the session (samples, analysed
            # windows) survives on the hub for reconnect or drain.
            await async_session.aclose()
            if not pump.done():
                # Abnormal exit (EOF, protocol error): the client is
                # gone, so undelivered window frames are droppable —
                # and the pump may be wedged in drain() on a peer that
                # stopped reading, so cancel rather than wait.
                pump.cancel()
            try:
                await pump
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
            tenant.connections -= 1
            if tenant.connections <= 0 and not self._shutting_down:
                # Last connection gone: release the fleet pool (it
                # re-forks on demand); hub and results stay for REST
                # queries and reconnecting feeders.
                tenant.engine.close()

    async def _stream_loop(
        self, reader, writer, tenant, subject, async_session, pump
    ) -> None:
        while True:
            try:
                frame = await self._read_frame(reader)
            except ServiceError as exc:
                await self._fatal(writer, str(exc))
                return
            if frame is None:  # EOF — client went away without close
                return
            op = frame.get("op")
            if op == "feed":
                try:
                    await async_session.feed(
                        frame.get("t"), frame.get("rr"),
                        frame.get("corrected"),
                    )
                except (SignalError, TypeError, ValueError) as exc:
                    # Bad samples poison this feed only; the stream and
                    # its siblings continue.
                    await self._send(writer, {
                        "op": "error", "error": str(exc), "fatal": False,
                    })
            elif op == "finalize":
                try:
                    result = await async_session.finalize()
                except SignalError as exc:
                    await self._fatal(writer, str(exc))
                    return
                # finalize ended the iteration; the pump flushes the
                # tail windows before the result frame goes out.
                await pump
                payload = result_to_dict(result)
                tenant.results[subject] = payload
                await self._send(writer, {
                    "op": "result", "subject": subject, **payload,
                })
                return
            elif op == "ping":
                # Ingestion barrier: frames are processed in order, so
                # the pong guarantees every earlier feed on this
                # connection has been ingested — what a client needs
                # before handing off to a server-side drain.
                await self._send(writer, {"op": "pong"})
            elif op == "close":
                return
            else:
                await self._send(writer, {
                    "op": "error",
                    "error": f"unknown op {op!r}",
                    "fatal": False,
                })

    async def _pump_emissions(self, async_session, subject, writer) -> None:
        """Writer task: deliver the subject's windows down the socket."""
        try:
            async for emission in async_session:
                await self._send(
                    writer, emission_to_frame(subject, emission)
                )
        except (ConnectionError, OSError):
            # Dead socket: release any feeder blocked on our queue.
            await async_session.aclose()

    async def _fatal(self, writer, message: str) -> None:
        try:
            await self._send(writer, {
                "op": "error", "error": message, "fatal": True,
            })
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # REST protocol
    # ------------------------------------------------------------------

    async def _handle_http(self, reader, writer, first: bytes) -> None:
        self._wire["http_requests"] += 1
        try:
            request_line = first + await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                await self._respond(writer, 400, {"error": "bad request"})
                return
            method, path = parts[0].upper(), parts[1]
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = b""
            length = int(headers.get("content-length", 0) or 0)
            if length > self._config.max_frame_bytes:
                await self._respond(writer, 413, {
                    "error": "body exceeds max_frame_bytes",
                })
                return
            if length:
                body = await reader.readexactly(length)
        except (ValueError, asyncio.IncompleteReadError):
            await self._respond(writer, 400, {"error": "bad request"})
            return
        try:
            status, payload = await self._route(method, path, headers, body)
        except ServiceError as exc:
            status, payload = 401, {"error": str(exc)}
        except (SignalError, ConfigurationError, TypeError, ValueError) as exc:
            status, payload = 400, {"error": str(exc)}
        await self._respond(writer, status, payload)

    def _bearer(self, headers: dict, body_data: dict | None = None) -> str:
        auth = headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        if body_data is not None and isinstance(body_data.get("token"), str):
            return body_data["token"]
        raise ServiceError("authentication failed")

    async def _route(self, method, path, headers, body):
        if method == "POST" and path == "/v1/analyze":
            return self._rest_analyze(headers, body)
        if method == "GET" and path == "/v1/stats":
            return self._rest_stats(headers)
        if method == "GET" and path.startswith("/v1/subjects/"):
            rest = path[len("/v1/subjects/"):]
            subject, _, leaf = rest.partition("/")
            if leaf == "windows" and subject:
                return self._rest_windows(headers, subject)
        return 404, {"error": f"no route for {method} {path}"}

    def _rest_analyze(self, headers, body):
        try:
            data = json.loads(body or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SignalError(f"malformed body: {exc}") from None
        if not isinstance(data, dict):
            raise SignalError("body must be a JSON object")
        spec = self._authenticate_token(self._bearer(headers, data))
        tenant = self._tenant(spec)
        t, rr = data.get("t"), data.get("rr")
        if t is None or rr is None:
            raise SignalError("body needs 't' and 'rr' arrays")
        corrected = data.get("corrected")
        series = RRSeries(
            times=np.asarray(t, dtype=float),
            intervals=np.asarray(rr, dtype=float),
            corrected=(
                None if corrected is None
                else np.asarray(corrected, dtype=float)
            ),
        )
        # Synchronous on the event loop on purpose: pushed to a thread,
        # analyze would share the engine's plan caches and variant memo
        # with a concurrent hub flush, and their safety under
        # concurrent use is unverified.
        result = tenant.engine.analyze(
            series, count_ops=bool(data.get("count_ops", False))
        )
        return 200, result_to_dict(result)

    def _rest_windows(self, headers, subject):
        spec = self._authenticate_token(self._bearer(headers))
        tenant = self._tenant(spec)
        if subject not in tenant.hub._sessions:
            if subject in tenant.results:
                # Hub already drained (post-shutdown REST): serve the
                # retained result's windows.
                payload = tenant.results[subject]
                metrics = payload.get("window_metrics") or []
                return 200, {
                    "subject": subject,
                    "finalized": True,
                    "windows": [
                        {
                            "index": i,
                            "center": payload["window_times"][i],
                            "metrics": (
                                metrics[i] if i < len(metrics) else None
                            ),
                            "power": payload["spectrogram"][i],
                        }
                        for i in range(payload["n_windows"])
                    ],
                }
            return 404, {"error": f"unknown subject {subject!r}"}
        session = tenant.hub.session(subject)
        return 200, {
            "subject": subject,
            "finalized": session.finalized,
            "windows": [
                {
                    "index": emission.index,
                    "start": emission.start,
                    "center": emission.center,
                    "quality": emission.quality,
                    "metrics": (
                        None if emission.metrics is None
                        else emission.metrics.to_dict()
                    ),
                    "power": emission.spectrum.power.tolist(),
                }
                for emission in session.emissions
            ],
        }

    def _rest_stats(self, headers):
        spec = self._authenticate_token(self._bearer(headers))
        tenant = self._tenant(spec)
        payload = {
            "service": self.stats(),
            "engine": tenant.engine.execution_stats(),
        }
        if tenant.hub.controller is not None:
            payload["controller"] = tenant.hub.controller_stats()
        else:
            payload["controller"] = None
        return 200, payload

    async def _respond(self, writer, status: int, payload: dict) -> None:
        reasons = {
            200: "OK", 400: "Bad Request", 401: "Unauthorized",
            404: "Not Found", 413: "Payload Too Large",
        }
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            self._wire["bytes_out"] += len(head) + len(body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass


async def _cancel_other_tasks() -> None:
    """Cancel and reap every task on this loop except the current one."""
    tasks = [
        task
        for task in asyncio.all_tasks()
        if task is not asyncio.current_task()
    ]
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


class GatewayThread:
    """A :class:`GatewayServer` on a background thread's event loop.

    Context manager for synchronous callers (tests, benchmarks, the
    smoke check): enter starts the server and yields once the port is
    bound; exit performs the full graceful drain.  ``address`` is the
    bound ``host:port`` for clients to dial.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self._config = config or ServiceConfig(listen="127.0.0.1:0")
        self.server: GatewayServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    @property
    def address(self) -> str:
        if self.server is None:
            raise ServiceError("gateway thread is not running")
        return self.server.address

    def __enter__(self) -> "GatewayThread":
        started = threading.Event()
        self._loop = asyncio.new_event_loop()
        self.server = GatewayServer(self._config)

        def run():
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.server.start())
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                self._error = exc
                started.set()
                return
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="repro-gateway", daemon=True
        )
        self._thread.start()
        started.wait(timeout=30)
        if self._error is not None:
            raise self._error
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is None or self._error is not None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self._loop
        )
        try:
            future.result(timeout=120)
            # Connection handlers whose peers have not hung up yet are
            # cancelled on the loop (their finally blocks close the
            # sockets) so stopping the loop never destroys live tasks.
            asyncio.run_coroutine_threadsafe(
                _cancel_other_tasks(), self._loop
            ).result(timeout=30)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._loop.close()

    def shutdown(self) -> None:
        """Trigger the graceful drain from the calling thread (blocking)."""
        if self._loop is None:
            raise ServiceError("gateway thread is not running")
        asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self._loop
        ).result(timeout=120)
