"""Socket transport for the fleet engine: frames and a typed codec.

:mod:`repro.fleet.shm` moves a cohort's arrays between processes on one
host; this module is its cross-machine sibling.  It defines the wire
protocol the worker daemon (:mod:`repro.fleet.remote`) speaks:

* **Framing** — every message travels as one length-prefixed frame
  (4-byte magic, 8-byte big-endian payload length, payload), so a
  reader always knows exactly how many bytes the next message owns and
  a half-written message can never be mistaken for a complete one.
* **Codec** — frame payloads are a small *typed* binary encoding of
  plain data (``None``/bool/int/float/str/bytes, tuples/lists/dicts,
  float64-exact :class:`numpy.ndarray` buffers and
  :class:`~repro.ffts.opcount.OpCounts`).  Nothing on the wire is ever
  unpickled: a daemon listening on a port must not grant arbitrary code
  execution to whoever can reach it, so the decoder only materialises
  the value types the protocol needs, and any payload it cannot decode
  — a bad dtype, extent, digit string or UTF-8 sequence, or nesting
  deeper than :data:`MAX_NESTING` — is a
  :class:`~repro.errors.TransportError`.
* **Exactness** — arrays are shipped as their raw C-order buffers with
  dtype and shape, so the bytes a worker analyses are *bit-identical*
  to the bytes the scheduler holds; floats ride as IEEE-754 doubles via
  ``struct``, never through decimal text.

:class:`FrameStream` wraps a connected socket with message send/receive
plus byte counters — the numbers the fleet benchmark reports as
serialization/framing overhead.
"""

from __future__ import annotations

import math
import socket
import struct

import numpy as np

from ..errors import ConfigurationError, TransportError
from ..ffts.opcount import OpCounts

__all__ = [
    "FrameStream",
    "decode_value",
    "encode_value",
    "format_address",
    "parse_address",
]

#: Frame magic: protocol family + wire-format revision.  A daemon
#: refuses frames that do not start with it (port scanners, stale
#: clients), and bumping the revision makes old/new peers fail loudly
#: instead of mis-decoding each other.
FRAME_MAGIC = b"RPF1"

#: Hard cap on one frame's payload (bytes).  A length prefix beyond it
#: is treated as protocol corruption rather than an allocation request —
#: a single garbage frame must not make the receiver reserve petabytes.
MAX_FRAME_BYTES = 1 << 34

#: Deepest nesting of tuples, lists and dicts the decoder accepts.  The
#: protocol's messages nest a few levels; a frame nesting thousands must
#: fail as a protocol error, not exhaust the interpreter's recursion.
MAX_NESTING = 32

_HEADER = struct.Struct("!4sQ")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_U32 = struct.Struct("!I")

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


# ----------------------------------------------------------------------
# Typed value codec
# ----------------------------------------------------------------------


def _encode_into(value, chunks: list) -> None:
    if value is None:
        chunks.append(b"N")
    elif value is True:
        chunks.append(b"T")
    elif value is False:
        chunks.append(b"F")
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            chunks.append(b"i" + _I64.pack(value))
        else:
            digits = str(value).encode("ascii")
            chunks.append(b"I" + _U32.pack(len(digits)) + digits)
    elif isinstance(value, float):
        chunks.append(b"f" + _F64.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        chunks.append(b"s" + _U32.pack(len(raw)) + raw)
    elif isinstance(value, bytes):
        chunks.append(b"b" + _U32.pack(len(value)) + value)
    elif isinstance(value, tuple):
        chunks.append(b"t" + _U32.pack(len(value)))
        for item in value:
            _encode_into(item, chunks)
    elif isinstance(value, list):
        chunks.append(b"l" + _U32.pack(len(value)))
        for item in value:
            _encode_into(item, chunks)
    elif isinstance(value, dict):
        chunks.append(b"d" + _U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise TransportError(
                    f"wire dicts use str keys, got {type(key).__name__}"
                )
            _encode_into(key, chunks)
            _encode_into(item, chunks)
    elif isinstance(value, OpCounts):
        chunks.append(
            b"o"
            + _I64.pack(value.mults)
            + _I64.pack(value.adds)
            + _I64.pack(value.compares)
        )
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        dtype = arr.dtype.str.encode("ascii")
        chunks.append(b"a" + _U32.pack(len(dtype)) + dtype)
        chunks.append(_U32.pack(arr.ndim))
        for extent in arr.shape:
            chunks.append(_I64.pack(extent))
        raw = arr.tobytes()  # C-order; bit-identical round trip
        chunks.append(_I64.pack(len(raw)))
        chunks.append(raw)
    elif isinstance(value, (np.integer,)):
        _encode_into(int(value), chunks)
    elif isinstance(value, (np.floating,)):
        _encode_into(float(value), chunks)
    else:
        raise TransportError(
            f"type {type(value).__name__} is not wire-encodable"
        )


def encode_value(value) -> bytes:
    """Encode one plain-data value as codec bytes.

    Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes``, ``tuple``/``list``/``dict`` (string keys) of supported
    values, C-contiguous-able :class:`numpy.ndarray` (any dtype,
    shipped bit-exactly) and :class:`OpCounts`.
    """
    chunks: list = []
    _encode_into(value, chunks)
    return b"".join(chunks)


class _Reader:
    """Cursor over one frame's payload bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if n < 0 or end > len(self.data):
            raise TransportError("truncated frame payload")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk


def _decode_from(reader: _Reader, depth: int = 0):
    tag = reader.take(1)
    if tag in (b"t", b"l", b"d"):
        if depth >= MAX_NESTING:
            raise TransportError(
                f"wire value nests deeper than {MAX_NESTING} levels"
            )
        depth += 1
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"i":
        return _I64.unpack(reader.take(8))[0]
    if tag == b"I":
        (length,) = _U32.unpack(reader.take(4))
        return int(reader.take(length).decode("ascii"))
    if tag == b"f":
        return _F64.unpack(reader.take(8))[0]
    if tag == b"s":
        (length,) = _U32.unpack(reader.take(4))
        return reader.take(length).decode("utf-8")
    if tag == b"b":
        (length,) = _U32.unpack(reader.take(4))
        return reader.take(length)
    if tag == b"t":
        (count,) = _U32.unpack(reader.take(4))
        return tuple(_decode_from(reader, depth) for _ in range(count))
    if tag == b"l":
        (count,) = _U32.unpack(reader.take(4))
        return [_decode_from(reader, depth) for _ in range(count)]
    if tag == b"d":
        (count,) = _U32.unpack(reader.take(4))
        out = {}
        for _ in range(count):
            key = _decode_from(reader, depth)
            if not isinstance(key, str):
                raise TransportError("wire dict key is not a string")
            out[key] = _decode_from(reader, depth)
        return out
    if tag == b"o":
        mults = _I64.unpack(reader.take(8))[0]
        adds = _I64.unpack(reader.take(8))[0]
        compares = _I64.unpack(reader.take(8))[0]
        return OpCounts(mults=mults, adds=adds, compares=compares)
    if tag == b"a":
        (dtype_len,) = _U32.unpack(reader.take(4))
        dtype = np.dtype(reader.take(dtype_len).decode("ascii"))
        if dtype.hasobject:  # pragma: no cover - rejected at encode too
            raise TransportError("object arrays are not wire-decodable")
        (ndim,) = _U32.unpack(reader.take(4))
        shape = tuple(
            _I64.unpack(reader.take(8))[0] for _ in range(ndim)
        )
        if min(shape, default=0) < 0:
            raise TransportError(f"negative array extent in shape {shape}")
        (nbytes,) = _I64.unpack(reader.take(8))
        # Python integers: an int64 product could wrap to a small size.
        expected = dtype.itemsize * math.prod(shape)
        if nbytes != expected:
            raise TransportError(
                f"array payload is {nbytes} bytes, shape/dtype need {expected}"
            )
        raw = reader.take(nbytes)
        # frombuffer keeps the frame's bytes as the backing store — no
        # copy, and read-only, which every downstream kernel accepts
        # (windows are copied into padded workspaces before any write).
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
    raise TransportError(f"unknown wire tag {tag!r}")


def decode_value(data: bytes):
    """Decode codec bytes back into the value :func:`encode_value` took.

    Raises :class:`~repro.errors.TransportError` for every payload that
    is not one encoded value.
    """
    reader = _Reader(data)
    try:
        value = _decode_from(reader)
    except (TypeError, ValueError) as exc:
        # An unknown dtype string (TypeError), a non-decimal integer or
        # invalid ASCII/UTF-8 text (ValueError, UnicodeDecodeError).
        raise TransportError(f"undecodable wire value: {exc}") from exc
    if reader.pos != len(data):
        raise TransportError(
            f"{len(data) - reader.pos} trailing bytes after wire value"
        )
    return value


# ----------------------------------------------------------------------
# Addresses
# ----------------------------------------------------------------------


def parse_address(address: str, allow_ephemeral: bool = False) -> tuple[str, int]:
    """Split a ``HOST:PORT`` worker address into its parts.

    Raises :class:`~repro.errors.ConfigurationError` on anything that
    cannot name a reachable daemon (missing port, port out of range) —
    worker lists come from config files and CLI flags, where a typo
    must fail at parse time, not as a connect timeout mid-run.
    ``allow_ephemeral`` additionally accepts port 0 (bind-side only:
    a *listen* address may ask the OS to pick the port, but a worker
    list entry naming port 0 could never be dialled).
    """
    if not isinstance(address, str):
        raise ConfigurationError(
            f"worker address must be a 'host:port' string, got "
            f"{type(address).__name__}"
        )
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"worker address {address!r} is not of the form 'host:port'"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"worker address {address!r} has a non-numeric port"
        ) from None
    low = 0 if allow_ephemeral else 1
    if not low <= port <= 65535:
        raise ConfigurationError(
            f"worker address {address!r} port must be in [{low}, 65535]"
        )
    return host, port


def format_address(host: str, port: int) -> str:
    """The canonical ``HOST:PORT`` spelling :func:`parse_address` accepts."""
    return f"{host}:{port}"


# ----------------------------------------------------------------------
# Frame stream
# ----------------------------------------------------------------------


class FrameStream:
    """Message-oriented wrapper around one connected socket.

    Every message is ``(kind, payload)`` — a short string naming the
    message type and a payload dict — encoded with the typed codec and
    shipped as one frame.  The stream counts payload bytes in each
    direction (:attr:`bytes_sent` / :attr:`bytes_received`) so callers
    can quantify transport overhead.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, kind: str, payload: dict | None = None) -> None:
        """Encode and send one message (blocking until fully written)."""
        body = encode_value((kind, payload if payload is not None else {}))
        frame = _HEADER.pack(FRAME_MAGIC, len(body)) + body
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise ConnectionError(f"fleet transport send failed: {exc}") from exc
        self.bytes_sent += len(frame)

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except socket.timeout:
                raise
            except OSError as exc:
                raise ConnectionError(
                    f"fleet transport receive failed: {exc}"
                ) from exc
            if not chunk:
                raise ConnectionError(
                    "fleet transport peer closed the connection"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> tuple[str, dict]:
        """Receive one complete message (blocking; honours socket timeout).

        Raises :class:`ConnectionError` when the peer vanished,
        :class:`socket.timeout` when the socket timeout elapsed with no
        complete frame, and :class:`~repro.errors.TransportError` on
        protocol violations.
        """
        header = self._recv_exact(_HEADER.size)
        magic, length = _HEADER.unpack(header)
        if magic != FRAME_MAGIC:
            raise TransportError(
                f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r})"
            )
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            )
        body = self._recv_exact(length)
        self.bytes_received += _HEADER.size + length
        message = decode_value(body)
        if (
            not isinstance(message, tuple)
            or len(message) != 2
            or not isinstance(message[0], str)
            or not isinstance(message[1], dict)
        ):
            raise TransportError("frame payload is not a (kind, dict) message")
        return message

    def settimeout(self, seconds: float | None) -> None:
        """Set the receive/send timeout on the underlying socket."""
        self._sock.settimeout(seconds)

    def close(self) -> None:
        """Close the underlying socket (idempotent, never raises)."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close never fails in practice
            pass
