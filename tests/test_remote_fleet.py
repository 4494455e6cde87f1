"""Tests for the cross-machine fleet: transport codec, daemon, scheduler.

The load-bearing claim mirrors :mod:`tests.test_fleet`'s, extended over
the socket: a cohort scheduled onto localhost worker daemons must
reproduce the in-process batched path **bit-for-bit** — same
spectrograms, same Welch averages, same operation counts — under both
PSA systems, every pruning mode and every registered provider, because
the daemon rebuilds the identical engine from the serialized config and
runs the same :func:`~repro.lomb.welch.analyze_spans_quality` choke
point under the scheduler's resolved provider/chunk pins.  Fault
tolerance rides on the same invariant: a shard re-run after a worker
death merges to the identical result, so killing a daemon mid-run must
not change a single bit of the output.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.ecg.rr_synthesis import TachogramSpec, generate_tachogram
from repro.engine import Engine, EngineConfig
from repro.engine.engine import build_system
from repro.errors import ConfigurationError, TransportError
from repro.ffts.opcount import OpCounts
from repro.ffts.providers.registry import available_providers
from repro.fleet import (
    FleetRunner,
    FrameStream,
    RemoteTaskError,
    RemoteWorker,
    WorkerDaemon,
    format_address,
    parse_address,
)
from repro.fleet.remote import (
    PROTOCOL_VERSION,
    result_from_wire,
    result_to_wire,
    task_from_wire,
    task_to_wire,
)
from repro.fleet.transport import MAX_FRAME_BYTES, decode_value, encode_value
from repro.fleet.worker import SpanTask
from repro.lomb.fast import FastLomb
from repro.lomb.welch import analyze_spans_quality


def _cohort(n=3, seconds=600.0):
    return [
        generate_tachogram(TachogramSpec(seed=seed), seconds)
        for seed in range(1, n + 1)
    ]


def _one_row_result(count_ops: bool = False) -> dict:
    """The ``result`` payload of a one-span task over a tiny recording."""
    times = np.arange(8.0)
    return result_to_wire(
        *analyze_spans_quality(
            FastLomb(), times, np.cos(times), [(0, 8)], count_ops
        )
    )


_U32, _I64 = struct.Struct("!I"), struct.Struct("!q")


def _wire_array(dtype: bytes, shape, nbytes: int, raw: bytes = b"") -> bytes:
    """Codec bytes of one array as a peer might send them, valid or not."""
    return (
        b"a" + _U32.pack(len(dtype)) + dtype + _U32.pack(len(shape))
        + b"".join(_I64.pack(extent) for extent in shape)
        + _I64.pack(nbytes) + raw
    )


#: Payloads the codec cannot decode, each of which once escaped the
#: decoder as an untyped exception.
_UNDECODABLE = {
    "unknown-dtype": _wire_array(b"nope", (2,), 16, bytes(16)),
    "negative-extent": _wire_array(b"<f8", (-2, -3), 48, bytes(48)),
    # 2**64 elements wrap an int64 product to 0, matching nbytes=0.
    "overflowing-count": _wire_array(b"<f8", (2**62, 4), 0),
    "non-decimal-int": b"I" + _U32.pack(3) + b"abc",
    "invalid-utf8": b"s" + _U32.pack(2) + b"\xff\xfe",
    "deep-nesting": (b"l" + _U32.pack(1)) * 5000 + b"N",
}

#: A ``result`` message whose spectra column cannot be decoded.
_UNDECODABLE_RESULT = (
    b"t" + _U32.pack(2) + encode_value("result")
    + b"d" + _U32.pack(1) + encode_value("spectra")
    + _UNDECODABLE["unknown-dtype"]
)


def _frame(body: bytes) -> bytes:
    """One RPF1 frame around raw codec bytes."""
    return b"RPF1" + struct.pack("!Q", len(body)) + body


def _providers():
    return sorted(
        name for name, ok in available_providers().items() if ok
    )


_MODES = ("exact", "band", "set1", "set2", "set3")


def _assert_identical(reference, results):
    assert len(reference) == len(results)
    for ref, got in zip(reference, results):
        np.testing.assert_array_equal(ref.spectrogram, got.spectrogram)
        np.testing.assert_array_equal(ref.frequencies, got.frequencies)
        np.testing.assert_array_equal(ref.averaged, got.averaged)
        assert ref.counts == got.counts


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------


class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**62,
            2**100,  # beyond int64: decimal-text encoding
            -(2**100),
            3.14159,
            float("inf"),
            "hello",
            "καρδιά",  # non-ASCII
            b"\x00\xffraw",
            (1, 2, 3),
            [1, "two", 3.0, None],
            {"a": 1, "b": [True, {"c": ()}]},
            OpCounts(mults=12, adds=34, compares=56),
        ],
    )
    def test_scalar_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(7, dtype=np.float64),
            np.arange(6, dtype=np.int64).reshape(2, 3),
            np.array([], dtype=np.float64),
            np.linspace(0, 1, 9, dtype=np.float32).reshape(3, 3),
            np.array([1 + 2j, 3 - 4j], dtype=np.complex128),
        ],
    )
    def test_array_roundtrip(self, array):
        decoded = decode_value(encode_value(array))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        np.testing.assert_array_equal(decoded, array)

    def test_array_roundtrip_is_bit_exact(self, rng):
        array = rng.standard_normal(513)
        decoded = decode_value(encode_value(array))
        assert decoded.tobytes() == array.tobytes()

    def test_nested_structure_with_arrays(self):
        packed = {
            "groups": [
                (5, np.arange(3.0), np.ones((3, 5)), None),
            ],
            "counts": (OpCounts(1, 2, 3), None),
        }
        decoded = decode_value(encode_value(packed))
        assert decoded["counts"] == (OpCounts(1, 2, 3), None)
        np.testing.assert_array_equal(
            decoded["groups"][0][2], np.ones((3, 5))
        )

    def test_noncontiguous_array_roundtrip(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        view = base[::2, ::3]
        decoded = decode_value(encode_value(view))
        np.testing.assert_array_equal(decoded, view)

    def test_truncated_payload_is_transport_error(self):
        payload = encode_value({"a": np.arange(8.0)})
        with pytest.raises(TransportError):
            decode_value(payload[: len(payload) - 3])

    def test_unknown_tag_is_transport_error(self):
        with pytest.raises(TransportError):
            decode_value(b"Z")

    @pytest.mark.parametrize(
        "payload", _UNDECODABLE.values(), ids=_UNDECODABLE
    )
    def test_undecodable_payload_is_transport_error(self, payload):
        with pytest.raises(TransportError):
            decode_value(payload)

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(TransportError):
            encode_value({1: "a"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(TransportError):
            encode_value(object())

    def test_task_variant_wire_form(self):
        """A task's variants cross in protocol v4's field order."""
        from repro.ffts.pruning import PruningSpec

        sent = []

        class Stream:
            def send(self, kind, payload):
                sent.append(payload)

            def recv(self):
                return "result", _one_row_result()

        spec = PruningSpec.paper_mode(2, dynamic=True)
        spec = spec.with_dynamic_threshold(0.25)
        worker = RemoteWorker("127.0.0.1:1")
        worker._stream = Stream()
        worker.run_task(
            SpanTask(
                0, 0, 1, ((0, 8),), False,
                variants=(("quality-scalable", spec),),
            )
        )
        pruning = {
            "band_drop": True,
            "twiddle_fraction": 0.4,
            "dynamic": True,
            "dynamic_threshold": 0.25,
        }
        variant = sent[0]["variants"][0]
        assert variant == {"system": "quality-scalable", "pruning": pruning}
        assert list(variant["pruning"]) == list(pruning)
        assert EngineConfig(pruning=spec).to_dict()["pruning"] == pruning
        assert PruningSpec.from_dict(variant["pruning"]) == spec

    def test_mixed_variant_task_and_result_columns_round_trip(self):
        """Protocol v4 carries per-span variants and result columns exactly."""
        from repro.engine.controller import degradation_ladder

        rungs = [
            (rung.system, rung.pruning)
            for rung in degradation_ladder(EngineConfig())[1:3]
        ]
        task = SpanTask(
            task_id=7, times_key=0, values_key=1,
            spans=((0, 8), (3, 12), (5, 20), (9, 30)),
            count_ops=True,
            variants=(None, rungs[0], rungs[1], rungs[0]),
            corrected_key=2,
        )
        data = encode_value(task_to_wire(task))
        assert task_from_wire(decode_value(data)) == task
        assert encode_value(task_to_wire(task_from_wire(decode_value(data)))) == data

        payload = _one_row_result(count_ops=True)
        data = encode_value(payload)
        spectra, metrics = result_from_wire(decode_value(data), rows=1)
        for name, column in {**spectra.columns(), **metrics.columns()}.items():
            sent = {**payload["spectra"], **payload["metrics"]}[name]
            assert column.dtype == sent.dtype, name
            assert column.tobytes() == sent.tobytes(), name
        assert encode_value(result_to_wire(spectra, metrics)) == data

    def test_result_with_wrong_row_count_is_connection_error(self):
        """A result that is not one row per span is refused, not aligned."""

        class Stream:
            bytes_sent = bytes_received = 0

            def send(self, kind, payload):
                pass

            def recv(self):
                return "result", _one_row_result()

            def close(self):
                pass

        worker = RemoteWorker("127.0.0.1:1")
        worker._stream = Stream()
        with pytest.raises(ConnectionError, match="for 2 spans"):
            worker.run_task(SpanTask(0, 0, 1, ((0, 8), (0, 8)), False))
        assert not worker.connected


class TestAddresses:
    def test_roundtrip(self):
        assert parse_address("10.0.0.5:9100") == ("10.0.0.5", 9100)
        assert format_address("10.0.0.5", 9100) == "10.0.0.5:9100"

    @pytest.mark.parametrize(
        "bad", ["nohost", ":9100", "host:", "host:abc", "host:0", "host:70000"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_address(bad)

    def test_ephemeral_port_allowed_for_listen(self):
        assert parse_address("0.0.0.0:0", allow_ephemeral=True) == (
            "0.0.0.0",
            0,
        )


class TestFrameStream:
    def _pair(self):
        server, client = socket.socketpair()
        return FrameStream(server), FrameStream(client)

    def test_send_recv_roundtrip(self, rng):
        a, b = self._pair()
        try:
            payload = {"key": 3, "data": rng.standard_normal(100)}
            a.send("array", payload)
            kind, decoded = b.recv()
            assert kind == "array"
            assert decoded["key"] == 3
            assert (
                decoded["data"].tobytes() == payload["data"].tobytes()
            )
            assert a.bytes_sent == b.bytes_received > 800
        finally:
            a.close()
            b.close()

    def test_peer_close_is_connection_error(self):
        a, b = self._pair()
        a.close()
        with pytest.raises(ConnectionError):
            b.recv()
        b.close()

    def test_bad_magic_is_transport_error(self):
        server, client = socket.socketpair()
        a, b = FrameStream(server), FrameStream(client)
        try:
            server.sendall(b"BAAD" + struct.pack("!Q", 4) + b"oops")
            with pytest.raises(TransportError):
                b.recv()
        finally:
            a.close()
            b.close()

    def test_oversized_frame_is_transport_error(self):
        server, client = socket.socketpair()
        a, b = FrameStream(server), FrameStream(client)
        try:
            server.sendall(b"RPF1" + struct.pack("!Q", MAX_FRAME_BYTES + 1))
            with pytest.raises(TransportError):
                b.recv()
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# Daemon protocol
# ----------------------------------------------------------------------


class TestWorkerDaemon:
    def test_handshake_and_info(self):
        config = EngineConfig()
        resolved = config.resolve()
        with WorkerDaemon() as daemon:
            daemon.start()
            worker = RemoteWorker(daemon.address, timeout=10.0)
            info = worker.connect(config.pinned())
            assert info["provider"] == resolved.provider
            assert info["chunk_windows"] == resolved.chunk_windows
            assert info["version"] == PROTOCOL_VERSION
            worker.close()

    def test_version_mismatch_refused(self):
        config = EngineConfig().pinned()
        with WorkerDaemon() as daemon:
            daemon.start()
            sock = socket.create_connection(
                (daemon.host, daemon.port), timeout=5.0
            )
            stream = FrameStream(sock)
            stream.settimeout(5.0)
            try:
                stream.send(
                    "hello",
                    {
                        "version": PROTOCOL_VERSION + 1,
                        "config": config.to_dict(),
                    },
                )
                kind, payload = stream.recv()
                assert kind == "error"
                assert "version" in payload["message"]
            finally:
                stream.close()

    @pytest.mark.parametrize("version", [4, PROTOCOL_VERSION])
    def test_v4_hello_refused(self, version):
        """A hello with v4's keys beside the config is a typed refusal."""
        config = EngineConfig().pinned()
        hello = {
            "version": version,
            "config": config.to_dict(),
            "provider": config.provider,
            "chunk_windows": config.chunk_windows,
            "arena": True,
        }
        with WorkerDaemon() as daemon:
            daemon.start()
            sock = socket.create_connection(
                (daemon.host, daemon.port), timeout=5.0
            )
            stream = FrameStream(sock)
            stream.settimeout(5.0)
            try:
                stream.send("hello", hello)
                kind, payload = stream.recv()
                assert kind == "error"
                assert "version" in payload["message"]
            finally:
                stream.close()

    def test_unknown_provider_refused(self, monkeypatch):
        """A provider the scheduler pinned but this host lacks is refused."""
        from repro.ffts.providers import registry

        config = EngineConfig(provider="scipy").pinned()
        monkeypatch.setattr(registry, "provider_available", lambda name: False)
        with WorkerDaemon() as daemon:
            daemon.start()
            worker = RemoteWorker(daemon.address, timeout=10.0)
            with pytest.raises(ConfigurationError, match="unavailable"):
                worker.connect(config)

    def test_unpinned_config_refused(self):
        """The daemon never resolves: an unpinned config is refused."""
        with WorkerDaemon() as daemon:
            daemon.start()
            worker = RemoteWorker(daemon.address, timeout=10.0)
            with pytest.raises(ConfigurationError, match="pinned"):
                worker.connect(EngineConfig(provider="numpy"))
            assert not worker.connected

    def test_task_with_unknown_array_key_is_task_error(self):
        with WorkerDaemon() as daemon:
            daemon.start()
            worker = RemoteWorker(daemon.address, timeout=10.0)
            worker.connect(EngineConfig().pinned())
            with pytest.raises(RemoteTaskError):
                worker.run_task(SpanTask(0, 0, 1, ((0, 8),), False))
            worker.close()

    def test_undecodable_frame_ends_only_its_connection(self, monkeypatch):
        """A frame the codec refuses closes its connection cleanly.

        No serving thread dies with an uncaught exception, and the
        daemon goes on serving the next connection.
        """
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        times = np.arange(8.0)
        with WorkerDaemon() as daemon:
            daemon.start()
            for body in _UNDECODABLE.values():
                sock = socket.create_connection(
                    (daemon.host, daemon.port), timeout=5.0
                )
                try:
                    sock.sendall(_frame(body))
                    assert sock.recv(1) == b""  # the daemon hung up
                finally:
                    sock.close()
            worker = RemoteWorker(daemon.address, timeout=10.0)
            worker.connect(EngineConfig().pinned())
            worker.ensure_array(0, times)
            worker.ensure_array(1, np.cos(times))
            spectra, _ = worker.run_task(SpanTask(0, 0, 1, ((0, 8),), False))
            worker.close()
        assert len(spectra) == 1
        assert uncaught == []

    @pytest.mark.parametrize(
        "config",
        [
            {"psa": {"bogus": 1}},
            {"pruning": {"x": 1}},
            {"bands": [{"nm": 1}]},
            {"bands": 3},
            {"jobs": "abc"},
            {"jobs": 1.9},
        ],
        ids=repr,
    )
    def test_malformed_hello_config_is_refused(self, monkeypatch, config):
        """A well-framed hello with a malformed config gets an error frame.

        The serving thread ends its session without an uncaught
        exception, and the daemon goes on serving the next connection.
        """
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        times = np.arange(8.0)
        with WorkerDaemon() as daemon:
            daemon.start()
            sock = socket.create_connection(
                (daemon.host, daemon.port), timeout=5.0
            )
            stream = FrameStream(sock)
            stream.settimeout(5.0)
            try:
                stream.send(
                    "hello", {"version": PROTOCOL_VERSION, "config": config}
                )
                kind, payload = stream.recv()
                assert kind == "error"
                assert "invalid engine config" in payload["message"]
                assert sock.recv(1) == b""  # the daemon hung up
            finally:
                stream.close()
            worker = RemoteWorker(daemon.address, timeout=10.0)
            worker.connect(EngineConfig().pinned())
            worker.ensure_array(0, times)
            worker.ensure_array(1, np.cos(times))
            spectra, _ = worker.run_task(SpanTask(0, 0, 1, ((0, 8),), False))
            worker.close()
        assert len(spectra) == 1
        assert uncaught == []

    @pytest.mark.parametrize(
        "payload",
        [
            {"data": np.arange(8.0)},
            {"key": "0", "data": np.arange(8.0)},
            {"key": [0], "data": np.arange(8.0)},
            {"key": 0},
            {"key": 0, "data": "samples"},
        ],
        ids=["no-key", "string-key", "list-key", "no-data", "non-array"],
    )
    def test_malformed_array_frame_is_answered(self, monkeypatch, payload):
        """An array frame without an integer key or data is an error frame.

        The connection stays usable: a well-formed upload and a task on
        it still run, and no serving thread dies.
        """
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        times = np.arange(8.0)
        with WorkerDaemon() as daemon:
            daemon.start()
            sock = socket.create_connection(
                (daemon.host, daemon.port), timeout=5.0
            )
            stream = FrameStream(sock)
            stream.settimeout(5.0)
            try:
                config = EngineConfig().pinned().to_dict()
                stream.send(
                    "hello", {"version": PROTOCOL_VERSION, "config": config}
                )
                assert stream.recv()[0] == "ready"
                stream.send("array", payload)
                kind, reply = stream.recv()
                assert kind == "error"
                assert "array frame" in reply["message"]
                stream.send("array", {"key": 0, "data": times})
                stream.send("array", {"key": 1, "data": np.cos(times)})
                stream.send(
                    "task", task_to_wire(SpanTask(0, 0, 1, ((0, 8),), False))
                )
                kind, _ = stream.recv()
                while kind == "heartbeat":
                    kind, _ = stream.recv()
                assert kind == "result"
            finally:
                stream.close()
        assert uncaught == []

    def test_unreachable_worker_is_connection_error(self):
        # Bind-then-close guarantees a dead port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        worker = RemoteWorker(f"127.0.0.1:{port}", timeout=2.0)
        with pytest.raises(ConnectionError):
            worker.connect(EngineConfig(provider="numpy", chunk_windows=64))


# ----------------------------------------------------------------------
# Bit-identity across transports (the flagship matrix)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def shared_daemon():
    with WorkerDaemon() as daemon:
        daemon.start()
        yield daemon


class TestRemoteBitIdentity:
    @pytest.mark.parametrize("provider", _providers())
    @pytest.mark.parametrize("mode", _MODES)
    def test_remote_equals_in_process(self, shared_daemon, mode, provider):
        """Localhost daemon == in-process, all modes × providers.

        ``mode="exact"`` runs the conventional system, every other mode
        the quality-scalable one, so both PSA systems are covered.
        """
        config = EngineConfig.for_mode(mode, provider=provider, jobs=1)
        cohort = _cohort(2)
        reference = FleetRunner(config).run(cohort, count_ops=True)
        runner = FleetRunner(config.replace(workers=(shared_daemon.address,)))
        with runner:
            report = runner.run_report(cohort, count_ops=True)
        assert report.n_remote_workers == 1
        _assert_identical(reference, report.results)

    @pytest.mark.slow
    def test_result_rows_read_the_same_on_every_transport(
        self, shared_daemon
    ):
        """Column results slice, index and compare alike on every transport.

        In-process, shm-pool and socket results are the kernel's column
        batches merged per recording; their rows must read as the
        in-process ones do.
        """
        config = EngineConfig.for_mode("set3", provider="numpy", jobs=1)
        cohort = _cohort(2)
        reference = FleetRunner(config).run(cohort, count_ops=True)
        runners = {
            "pool": FleetRunner(config.replace(jobs=2)),
            "daemon": FleetRunner(
                config.replace(workers=(shared_daemon.address,))
            ),
        }
        for name, runner in runners.items():
            with runner:
                results = runner.run(cohort, count_ops=True)
            for ref, got in zip(reference, results):
                rows = got.window_spectra[2:5]
                assert len(rows) == 3, name
                for want, spectrum in zip(ref.window_spectra[2:5], rows):
                    assert spectrum.power.tobytes() == want.power.tobytes()
                    assert spectrum.frequencies.tobytes() == (
                        want.frequencies.tobytes()
                    )
                    assert spectrum.counts == want.counts
                last = got.window_spectra[-1]
                assert last.power.tobytes() == (
                    ref.window_spectra[-1].power.tobytes()
                )
                assert (last.mean, last.variance, last.n_samples) == (
                    ref.window_spectra[-1].mean,
                    ref.window_spectra[-1].variance,
                    ref.window_spectra[-1].n_samples,
                )
                assert got.window_metrics == ref.window_metrics, name
                assert got.window_metrics[1:4] == ref.window_metrics[1:4]
                assert list(got.window_metrics) == list(ref.window_metrics)

    def test_remote_equals_shm_pool(self, shared_daemon):
        """The three transports agree: in-process == shm pool == socket."""
        config = EngineConfig.for_mode("set3", jobs=1)
        cohort = _cohort(3)
        reference = FleetRunner(config).run(cohort, count_ops=True)
        with FleetRunner(config.replace(jobs=2)) as pool_runner:
            pool_results = pool_runner.run(cohort, count_ops=True)
        with FleetRunner(
            config.replace(jobs=2, workers=(shared_daemon.address,))
        ) as mixed_runner:
            mixed = mixed_runner.run_report(cohort, count_ops=True)
        _assert_identical(reference, pool_results)
        _assert_identical(reference, mixed.results)

    def test_engine_facade_distributed_cohort(self, shared_daemon):
        """EngineConfig(workers=[...]) routes analyze_cohort remotely."""
        cohort = _cohort(2)
        with Engine(EngineConfig.for_mode("set2", jobs=1)) as local:
            reference = local.analyze_cohort(cohort, count_ops=True)
        config = EngineConfig.for_mode(
            "set2", jobs=1, workers=(shared_daemon.address,)
        )
        with Engine(config) as engine:
            distributed = engine.analyze_cohort(cohort, count_ops=True)
        assert len(reference) == len(distributed)
        for ref, got in zip(reference, distributed):
            np.testing.assert_array_equal(
                ref.welch.spectrogram, got.welch.spectrogram
            )
            assert ref.counts == got.counts
            assert ref.lf_hf == got.lf_hf

    def test_streaming_hub_dispatches_to_remote(self, shared_daemon):
        """run_spans (the hub flush path) is bit-identical over the wire."""
        config = EngineConfig.for_mode("set3", jobs=1)
        welch = build_system(config).welch
        rr = _cohort(1, seconds=1800.0)[0]
        plan = welch.plan_windows(rr.times, rr.intervals)
        reference, ref_metrics = FleetRunner(config).run_spans(
            plan.times, plan.values, plan.spans, count_ops=True
        )
        runner = FleetRunner(config.replace(workers=(shared_daemon.address,)))
        with runner:
            remote, remote_metrics = runner.run_spans(
                plan.times, plan.values, plan.spans, count_ops=True
            )
        assert len(reference) == len(remote)
        assert ref_metrics == remote_metrics
        for ref, got in zip(reference, remote):
            np.testing.assert_array_equal(ref.power, got.power)
            np.testing.assert_array_equal(ref.frequencies, got.frequencies)
            assert ref.counts == got.counts

    def test_second_run_reuses_connection(self, shared_daemon):
        """Persistent connections reset array keys between runs."""
        config = EngineConfig(jobs=1, workers=(shared_daemon.address,))
        reference_runner = FleetRunner(config.replace(workers=()))
        with FleetRunner(config) as runner:
            first_cohort = _cohort(2)
            second_cohort = _cohort(2, seconds=900.0)
            first = runner.run_report(first_cohort, count_ops=True)
            second = runner.run_report(second_cohort, count_ops=True)
            stats = runner.transport_stats()
        _assert_identical(
            reference_runner.run(first_cohort, count_ops=True),
            first.results,
        )
        _assert_identical(
            reference_runner.run(second_cohort, count_ops=True),
            second.results,
        )
        assert stats[shared_daemon.address]["bytes_sent"] > 0
        assert stats[shared_daemon.address]["bytes_received"] > 0


# ----------------------------------------------------------------------
# Fault tolerance
# ----------------------------------------------------------------------


class _DyingDaemon(WorkerDaemon):
    """A daemon that drops the connection mid-task after N completions.

    Deterministic worker death: completing ``die_after`` tasks, the next
    task's connection is severed *without a reply* — exactly what the
    scheduler observes when a remote host is powered off mid-shard.
    """

    def __init__(self, die_after: int = 1, **kwargs):
        super().__init__(**kwargs)
        self.die_after = die_after
        self._completed = 0

    def _run_task(self, stream, payload, state) -> None:
        if self._completed >= self.die_after:
            stream.close()  # vanish without an answer
            return
        self._completed += 1
        super()._run_task(stream, payload, state)


class _CorruptingDaemon(WorkerDaemon):
    """A daemon that answers its first task with an undecodable result."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.corrupted = 0

    def _run_task(self, stream, payload, state) -> None:
        if self.corrupted:
            super()._run_task(stream, payload, state)
            return
        self.corrupted += 1
        stream._sock.sendall(_frame(_UNDECODABLE_RESULT))


class TestFaultTolerance:
    def test_undecodable_result_requeues_the_task(self, monkeypatch):
        """A corrupt result frame is a dead connection, not a failed run.

        The scheduler sees a :class:`ConnectionError`, requeues the
        task, rejoins the daemon and completes the cohort bit-identically.
        """
        monkeypatch.setattr(
            "repro.fleet.runner.DEFAULT_MIN_WINDOWS_PER_SHARD", 1
        )
        config = EngineConfig.for_mode("set3", jobs=1)
        cohort = _cohort(2)
        reference = FleetRunner(config).run(cohort, count_ops=True)
        with _CorruptingDaemon() as daemon:
            daemon.start()
            runner = FleetRunner(config.replace(workers=(daemon.address,)))
            with runner:
                results = runner.run(cohort, count_ops=True)
        assert daemon.corrupted == 1
        _assert_identical(reference, results)

    def test_worker_death_mid_run_reassigns_shards(self, monkeypatch):
        """A daemon dying after its first task never fails the cohort."""
        monkeypatch.setattr(
            "repro.fleet.runner.DEFAULT_MIN_WINDOWS_PER_SHARD", 1
        )
        config = EngineConfig.for_mode("set3", jobs=1)
        cohort = _cohort(4)
        reference = FleetRunner(config).run(cohort, count_ops=True)
        with _DyingDaemon(die_after=1) as daemon:
            daemon.start()
            runner = FleetRunner(config.replace(workers=(daemon.address,)))
            with runner:
                report = runner.run_report(cohort, count_ops=True)
        assert report.n_shards > 2  # the death actually left work behind
        _assert_identical(reference, report.results)

    def test_first_connect_failure_is_configuration_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        config = EngineConfig(jobs=1, workers=(f"127.0.0.1:{port}",))
        runner = FleetRunner(config)
        with pytest.raises(ConfigurationError, match="unreachable"):
            runner.run(_cohort(1))

    def test_previously_healthy_worker_death_degrades_gracefully(self):
        """A worker that served run 1 but is gone for run 2 is skipped."""
        config = EngineConfig.for_mode("band", jobs=1)
        cohort = _cohort(2)
        reference = FleetRunner(config).run(cohort, count_ops=True)
        daemon = WorkerDaemon()
        daemon.start()
        runner = FleetRunner(config.replace(workers=(daemon.address,)))
        with runner:
            first = runner.run_report(cohort, count_ops=True)
            assert first.n_remote_workers == 1
            daemon.close()  # the host goes away between runs
            second = runner.run_report(cohort, count_ops=True)
            assert second.n_remote_workers == 0
        _assert_identical(reference, first.results)
        _assert_identical(reference, second.results)

    def test_sigkill_subprocess_daemon_mid_run(self, monkeypatch):
        """Kill -9 a real daemon process mid-cohort: run still completes."""
        monkeypatch.setattr(
            "repro.fleet.runner.DEFAULT_MIN_WINDOWS_PER_SHARD", 1
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            address = re.search(r"listening on (\S+)", banner).group(1)
            config = EngineConfig.for_mode("set3", jobs=1)
            cohort = _cohort(4)
            reference = FleetRunner(config).run(cohort, count_ops=True)
            runner = FleetRunner(
                config.replace(workers=(address,), worker_timeout=5.0)
            )
            killer = threading.Timer(
                0.15, lambda: proc.send_signal(signal.SIGKILL)
            )
            killer.start()
            try:
                with runner:
                    report = runner.run_report(cohort, count_ops=True)
            finally:
                killer.cancel()
            _assert_identical(reference, report.results)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()


# ----------------------------------------------------------------------
# Config surface
# ----------------------------------------------------------------------


class TestWorkersConfig:
    def test_workers_roundtrip_through_json(self):
        config = EngineConfig(workers=("10.0.0.1:9100", "10.0.0.2:9100"))
        assert EngineConfig.from_json(config.to_json()) == config

    def test_workers_resolution_chain(self):
        config = EngineConfig(workers=("10.0.0.1:9100",))
        resolved = config.resolve()
        assert resolved.workers == ("10.0.0.1:9100",)
        assert resolved.workers_source == "config"
        assert EngineConfig().resolve().workers_source == "default"

    def test_malformed_worker_address_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(workers=("not-an-address",))
        with pytest.raises(ConfigurationError):
            EngineConfig.from_dict({"workers": "10.0.0.1:9100"})
