"""Gateway load generator: a separate, single-threaded, open-loop client.

Run by the ``gateway_stream`` workload process as::

    python3 perfbench/loadgen.py HOST:PORT PLAN.pkl OUT.pkl

Two connection slots take subjects one after another.  Per subject a
slot sends ``hello``, then one 60 s RR burst every ``period`` seconds,
then ``finalize``; once the ``result`` frame is in, its REST read
(``GET /v1/subjects/<id>/windows``) replaces the stream connection, so
at most two connections are open at once.  Every send is due on a fixed
schedule whatever the gateway does; a send made late is recorded.
Between due times the generator polls its sockets, so each ``window``
frame is stamped when it arrives, and its latency runs from the due
time of the burst (or finalize) that completed the window.

Deliberately independent of ``repro``: it speaks the wire protocol.
"""

from __future__ import annotations

import json
import math
import pickle
import select
import socket
import sys

from common import floats_bytes, now, payload_digest, window_digest

_RECV = 1 << 16


class _Reader:
    """Buffered reader over one socket; ``framed`` splits newline frames."""

    def __init__(self, sock, framed: bool):
        self.sock = sock
        self.framed = framed
        self.buffer = bytearray()

    def read(self) -> tuple[list[bytes], int, bool]:
        """``(complete frames, bytes read, eof)`` after one recv."""
        chunk = self.sock.recv(_RECV)
        self.buffer.extend(chunk)
        lines = []
        while self.framed:
            cut = self.buffer.find(b"\n")
            if cut < 0:
                break
            lines.append(bytes(self.buffer[: cut + 1]))
            del self.buffer[: cut + 1]
        return lines, len(chunk), not chunk


class Slot:
    """One connection slot working through its subjects on schedule."""

    def __init__(self, index: int, plan: dict, address, t_start: float):
        self.plan = plan
        self.address = address
        period, n_bursts = plan["period"], plan["bursts"]
        per_subject = (n_bursts + plan["gap"]) * period
        offset = t_start + index * period / plan["slots"]
        count = plan["subjects_per_slot"]
        distinct = len(plan["frames"])
        self.subjects = [
            {
                "name": f"g{index}-{k:03d}",
                "recording": (index * count + k) % distinct,
                "base": offset + k * per_subject,
                "windows": [], "result": None, "rest": None, "errors": 0,
            }
            for k in range(count)
        ]
        self.current = -1
        self.state = "idle"
        self.stream = self.rest = None
        self.late: list[float] = []
        self.rest_ms: list[float] = []
        self.sent = self.received = 0
        self._next_subject()

    # -- schedule ------------------------------------------------------
    def _next_subject(self) -> None:
        self.current += 1
        self.step = 0  # 0: hello + burst 0, 1..bursts-1: bursts, bursts: finalize
        self.state = "idle" if self.current < len(self.subjects) else "done"

    def due(self, step: int) -> float:
        return self.subjects[self.current]["base"] + step * self.plan["period"]

    def next_due(self) -> float:
        return self.due(self.step) if self.state == "idle" else math.inf

    def fire(self, t: float) -> None:
        """Make every send that is due by ``t``."""
        while self.state == "idle" and self.due(self.step) <= t:
            subject = self.subjects[self.current]
            frames = self.plan["frames"][subject["recording"]]
            data = b""
            if self.step == 0:
                sock = socket.create_connection(self.address)
                self.stream = _Reader(sock, framed=True)
                data += json.dumps({
                    "op": "hello", "tenant": self.plan["tenant"],
                    "token": self.plan["token"], "subject": subject["name"],
                }).encode() + b"\n"
            if self.step < len(frames):
                data += frames[self.step]
            else:
                data += b'{"op":"finalize"}\n'
                self.state = "result"
            self.stream.sock.sendall(data)
            self.sent += len(data)
            self.late.append(max(0.0, now() - self.due(self.step)))
            self.step += 1

    # -- receive -------------------------------------------------------
    def sockets(self) -> list:
        return [s.sock for s in (self.stream, self.rest) if s is not None]

    def on_readable(self, sock, t: float) -> None:
        if self.stream is not None and sock is self.stream.sock:
            lines, size, eof = self.stream.read()
            self.received += size
            for line in lines:
                self._frame(json.loads(line), t)
            if eof:
                self._close_stream()
        else:
            lines, size, eof = self.rest.read()
            self.received += size
            if eof:
                self._rest_done(t)

    def _frame(self, frame: dict, t: float) -> None:
        subject = self.subjects[self.current]
        op = frame.get("op")
        if op == "window":
            subject["windows"].append((t, frame))
        elif op == "result":
            subject["result"] = frame
            self._close_stream()
            self._start_rest(t)
        elif op == "error":
            subject["errors"] += 1

    def _close_stream(self) -> None:
        if self.stream is not None:
            self.stream.sock.close()
            self.stream = None

    def _start_rest(self, t: float) -> None:
        subject = self.subjects[self.current]
        request = (
            f"GET /v1/subjects/{subject['name']}/windows HTTP/1.1\r\n"
            f"Host: {self.address[0]}\r\n"
            f"Authorization: Bearer {self.plan['token']}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        sock = socket.create_connection(self.address)
        sock.sendall(request)
        self.sent += len(request)
        self.rest = _Reader(sock, framed=False)
        self.rest_started = t
        self.state = "rest"

    def _rest_done(self, t: float) -> None:
        raw = bytes(self.rest.buffer)
        self.rest.sock.close()
        self.rest = None
        self.rest_ms.append((t - self.rest_started) * 1e3)
        head, _, body = raw.partition(b"\r\n\r\n")
        if head.split(b" ", 2)[1:2] == [b"200"]:
            self.subjects[self.current]["rest"] = json.loads(body)
        self._next_subject()


def _check(plan: dict, slot: Slot) -> tuple[list[tuple], int, int]:
    """``(due, latency ms)`` pairs, windows attempted and failed.

    A window passes when its ``window`` frame, the subject's ``result``
    frame and its REST row all match the reference; a failed or missing
    window counts as infinite latency.
    """
    latency: list[tuple] = []
    attempted = failed = 0
    for subject in slot.subjects:
        expected = plan["expected"][subject["recording"]]
        completes = plan["completes"][subject["recording"]]
        digests = expected["windows"]
        attempted += len(digests)
        streamed, arrived = {}, {}
        for t, frame in subject["windows"]:
            index = frame["index"]
            got = window_digest(
                floats_bytes(frame["power"]), frame["center"],
                frame["metrics"],
            )
            if 0 <= index < len(digests) and got == digests[index]:
                streamed[index], arrived[index] = frame, t
        good = set(streamed)
        result = subject["result"]
        if result is None or payload_digest({
            k: v for k, v in result.items() if k not in ("op", "subject")
        }) != expected["result"]:
            good = set()
        rest = subject["rest"] or {"windows": []}
        good &= {
            row["index"] for row in rest["windows"]
            if row["index"] in streamed
            and all(row[k] == streamed[row["index"]][k]
                    for k in ("start", "center", "quality", "metrics",
                              "power"))
        }
        for index in good:
            due = subject["base"] + completes[index] * plan["period"]
            latency.append((due, (arrived[index] - due) * 1e3))
        bad = len(digests) - len(good)
        failed += bad + subject["errors"]
        latency += [(subject["base"], math.inf)] * bad
    return latency, attempted, failed


def main(argv) -> int:
    host, port = argv[0].rsplit(":", 1)
    address = (host, int(port))
    with open(argv[1], "rb") as handle:
        plan = pickle.load(handle)["plan"]
    t_start = now() + 0.1
    slots = [Slot(j, plan, address, t_start) for j in range(plan["slots"])]
    while any(slot.state != "done" for slot in slots):
        t = now()
        for slot in slots:
            slot.fire(t)
        owner = {sock: slot for slot in slots for sock in slot.sockets()}
        # Poll, never block: a generator whose vCPU idles stamps arrivals
        # and makes sends late by however long the host takes to wake it.
        readable, _, _ = select.select(list(owner), [], [], 0.0)
        t = now()
        for sock in readable:
            owner[sock].on_readable(sock, t)
    wall = now() - t_start
    latency, late, rest_ms = [], [], []
    attempted = failed = sent = received = 0
    for slot in slots:
        slot_latency, slot_attempted, slot_failed = _check(plan, slot)
        latency += slot_latency
        attempted += slot_attempted
        failed += slot_failed
        late += slot.late
        rest_ms += slot.rest_ms
        sent += slot.sent
        received += slot.received
    with open(argv[2], "wb") as handle:
        pickle.dump({
            "windows": attempted, "checked": {"failed": failed},
            "latency_ms": [ms for _, ms in sorted(latency)],
            "late_s": late, "rest_ms": rest_ms,
            "bytes_up": sent, "bytes_down": received, "wall_s": wall,
        }, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
