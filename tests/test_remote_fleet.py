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
from repro.fleet.remote import PROTOCOL_VERSION
from repro.fleet.transport import MAX_FRAME_BYTES, decode_value, encode_value


def _cohort(n=3, seconds=600.0):
    return [
        generate_tachogram(TachogramSpec(seed=seed), seconds)
        for seed in range(1, n + 1)
    ]


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

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(TransportError):
            encode_value({1: "a"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(TransportError):
            encode_value(object())

    def test_task_variant_wire_form(self):
        """A task's variant crosses in protocol v3's field order."""
        from repro.ffts.pruning import PruningSpec

        sent = []

        class Stream:
            def send(self, kind, payload):
                sent.append(payload)

            def recv(self):
                return "result", {"packed": [], "metrics": ()}

        spec = PruningSpec.paper_mode(2, dynamic=True)
        spec = spec.with_dynamic_threshold(0.25)
        worker = RemoteWorker("127.0.0.1:1")
        worker._stream = Stream()
        worker.run_task(
            0, 0, 1, [(0, 8)], False, variant=("quality-scalable", spec)
        )
        pruning = {
            "band_drop": True,
            "twiddle_fraction": 0.4,
            "dynamic": True,
            "dynamic_threshold": 0.25,
        }
        variant = sent[0]["variant"]
        assert variant == {"system": "quality-scalable", "pruning": pruning}
        assert list(variant["pruning"]) == list(pruning)
        assert EngineConfig(pruning=spec).to_dict()["pruning"] == pruning
        assert PruningSpec.from_dict(variant["pruning"]) == spec


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
            info = worker.connect(
                {
                    "config": config.to_dict(),
                    "provider": resolved.provider,
                    "chunk_windows": resolved.chunk_windows,
                }
            )
            assert info["provider"] == resolved.provider
            assert info["chunk_windows"] == resolved.chunk_windows
            assert info["version"] == PROTOCOL_VERSION
            worker.close()

    def test_version_mismatch_refused(self):
        config = EngineConfig()
        resolved = config.resolve()
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
                        "provider": resolved.provider,
                        "chunk_windows": resolved.chunk_windows,
                    },
                )
                kind, payload = stream.recv()
                assert kind == "error"
                assert "version" in payload["message"]
            finally:
                stream.close()

    def test_unknown_provider_refused(self):
        config = EngineConfig()
        resolved = config.resolve()
        with WorkerDaemon() as daemon:
            daemon.start()
            worker = RemoteWorker(daemon.address, timeout=10.0)
            with pytest.raises(ConfigurationError, match="not available"):
                worker.connect(
                    {
                        "config": config.to_dict(),
                        "provider": "no-such-provider",
                        "chunk_windows": resolved.chunk_windows,
                    }
                )

    def test_task_with_unknown_array_key_is_task_error(self):
        config = EngineConfig()
        resolved = config.resolve()
        with WorkerDaemon() as daemon:
            daemon.start()
            worker = RemoteWorker(daemon.address, timeout=10.0)
            worker.connect(
                {
                    "config": config.to_dict(),
                    "provider": resolved.provider,
                    "chunk_windows": resolved.chunk_windows,
                }
            )
            with pytest.raises(RemoteTaskError):
                worker.run_task(0, 0, 1, [(0, 8)], False)
            worker.close()

    def test_unreachable_worker_is_connection_error(self):
        # Bind-then-close guarantees a dead port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        worker = RemoteWorker(f"127.0.0.1:{port}", timeout=2.0)
        with pytest.raises(ConnectionError):
            worker.connect({"config": EngineConfig().to_dict(),
                            "provider": "numpy", "chunk_windows": 64})


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
        welch = build_system(config).welch
        cohort = _cohort(2)
        reference = FleetRunner.from_config(config, welch=welch).run(
            cohort, count_ops=True
        )
        runner = FleetRunner.from_config(
            config.replace(workers=(shared_daemon.address,)), welch=welch
        )
        with runner:
            report = runner.run_report(cohort, count_ops=True)
        assert report.n_remote_workers == 1
        _assert_identical(reference, report.results)

    def test_remote_equals_shm_pool(self, shared_daemon):
        """The three transports agree: in-process == shm pool == socket."""
        config = EngineConfig.for_mode("set3", jobs=1)
        welch = build_system(config).welch
        cohort = _cohort(3)
        reference = FleetRunner.from_config(config, welch=welch).run(
            cohort, count_ops=True
        )
        with FleetRunner.from_config(
            config.replace(jobs=2), welch=welch
        ) as pool_runner:
            pool_results = pool_runner.run(cohort, count_ops=True)
        with FleetRunner.from_config(
            config.replace(jobs=2, workers=(shared_daemon.address,)),
            welch=welch,
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
        reference, ref_metrics = FleetRunner.from_config(
            config, welch=welch
        ).run_spans(plan.times, plan.values, plan.spans, count_ops=True)
        runner = FleetRunner.from_config(
            config.replace(workers=(shared_daemon.address,)), welch=welch
        )
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
        welch = build_system(config).welch
        reference_runner = FleetRunner.from_config(
            config.replace(workers=()), welch=welch
        )
        with FleetRunner.from_config(config, welch=welch) as runner:
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


class TestFaultTolerance:
    def test_worker_death_mid_run_reassigns_shards(self):
        """A daemon dying after its first task never fails the cohort."""
        config = EngineConfig.for_mode("set3", jobs=1)
        welch = build_system(config).welch
        cohort = _cohort(4)
        reference = FleetRunner.from_config(config, welch=welch).run(
            cohort, count_ops=True
        )
        with _DyingDaemon(die_after=1) as daemon:
            daemon.start()
            runner = FleetRunner.from_config(
                config.replace(workers=(daemon.address,)),
                welch=welch,
                min_windows_per_shard=1,
            )
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
        runner = FleetRunner.from_config(config)
        with pytest.raises(ConfigurationError, match="unreachable"):
            runner.run(_cohort(1))

    def test_previously_healthy_worker_death_degrades_gracefully(self):
        """A worker that served run 1 but is gone for run 2 is skipped."""
        config = EngineConfig.for_mode("band", jobs=1)
        welch = build_system(config).welch
        cohort = _cohort(2)
        reference = FleetRunner.from_config(config, welch=welch).run(
            cohort, count_ops=True
        )
        daemon = WorkerDaemon()
        daemon.start()
        runner = FleetRunner.from_config(
            config.replace(workers=(daemon.address,)), welch=welch
        )
        with runner:
            first = runner.run_report(cohort, count_ops=True)
            assert first.n_remote_workers == 1
            daemon.close()  # the host goes away between runs
            second = runner.run_report(cohort, count_ops=True)
            assert second.n_remote_workers == 0
        _assert_identical(reference, first.results)
        _assert_identical(reference, second.results)

    def test_sigkill_subprocess_daemon_mid_run(self):
        """Kill -9 a real daemon process mid-cohort: run still completes."""
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
            welch = build_system(config).welch
            cohort = _cohort(4)
            reference = FleetRunner.from_config(config, welch=welch).run(
                cohort, count_ops=True
            )
            runner = FleetRunner.from_config(
                config.replace(workers=(address,)),
                welch=welch,
                min_windows_per_shard=1,
                worker_timeout=5.0,
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
        explicit = config.resolve(workers=("10.0.0.9:9200",))
        assert explicit.workers == ("10.0.0.9:9200",)
        assert explicit.workers_source == "explicit"
        assert EngineConfig().resolve().workers_source == "default"

    def test_malformed_worker_address_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(workers=("not-an-address",))
        with pytest.raises(ConfigurationError):
            EngineConfig.from_dict({"workers": "10.0.0.1:9100"})

    def test_runner_requires_config_for_workers(self):
        with pytest.raises(ConfigurationError, match="config"):
            FleetRunner(n_jobs=1, workers=("127.0.0.1:9100",))
