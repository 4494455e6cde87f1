"""Tests for the network service layer (:mod:`repro.service`).

The contract under test: anything streamed through the framed gateway
or uploaded through REST produces results **bit-identical** to
in-process :meth:`Engine.analyze` — across tenants, PSA systems,
interleaved feeds, disconnect/reconnect, and graceful drain — and
protocol/auth failures are isolated to the offending connection.
"""

from __future__ import annotations

import json
import socket
import time

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig, SLOSpec
from repro.errors import ConfigurationError, ServiceError
from repro.hrv.rr import RRSeries
from repro.service import (
    GatewayThread,
    ServiceClient,
    ServiceConfig,
    TenantSpec,
    rest_analyze,
    rest_stats,
    rest_windows,
)
from repro.service.wire import (
    counts_from_dict,
    decode_frame,
    encode_frame,
    result_to_dict,
)


def _synthetic_rr(duration: float = 400.0, seed: int = 7) -> RRSeries:
    rng = np.random.default_rng(seed)
    times = []
    t = 0.0
    while t < duration:
        rr = 0.8 + 0.05 * np.sin(2 * np.pi * 0.25 * t) + rng.normal(0, 0.01)
        t += rr
        times.append(t)
    times = np.asarray(times)
    intervals = np.diff(times, prepend=0.0)
    return RRSeries(times=times[1:], intervals=intervals[1:])


def _wire_view(result_frame: dict) -> dict:
    """A result frame minus the envelope keys, for == against a dict."""
    return {
        key: value
        for key, value in result_frame.items()
        if key not in ("op", "subject")
    }


def _feed_all(client: ServiceClient, rr: RRSeries, chunk: int = 50) -> None:
    for lo in range(0, rr.times.size, chunk):
        client.feed(rr.times[lo : lo + chunk], rr.intervals[lo : lo + chunk])


@pytest.fixture(scope="module")
def rr() -> RRSeries:
    return _synthetic_rr()


@pytest.fixture(scope="module")
def expected(rr) -> dict:
    """Wire-form reference result of the default engine config."""
    with Engine(EngineConfig()) as engine:
        return result_to_dict(engine.analyze(rr, count_ops=True))


def _default_gateway() -> GatewayThread:
    return GatewayThread(ServiceConfig(listen="127.0.0.1:0", count_ops=True))


class TestServiceConfig:
    def test_json_round_trip(self):
        config = ServiceConfig(
            listen="0.0.0.0:9000",
            tenants=(
                TenantSpec("a", "token-a", EngineConfig.for_mode("exact")),
                TenantSpec("b", "token-b", EngineConfig.for_mode("set3")),
            ),
            round_events=32,
            max_frame_bytes=1 << 20,
            hello_timeout=5.0,
            count_ops=True,
        )
        assert ServiceConfig.from_json(config.to_json()) == config

    def test_from_file(self, tmp_path):
        config = ServiceConfig(listen="127.0.0.1:8123")
        path = tmp_path / "service.json"
        path.write_text(config.to_json(), encoding="utf-8")
        assert ServiceConfig.from_file(path) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown service"):
            ServiceConfig.from_dict({"listen": "127.0.0.1:1", "nope": 1})
        with pytest.raises(ConfigurationError, match="unknown tenant"):
            TenantSpec.from_dict({"name": "a", "token": "t", "extra": 1})

    def test_duplicate_names_and_tokens_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate tenant"):
            ServiceConfig(tenants=(
                TenantSpec("a", "t1"), TenantSpec("a", "t2"),
            ))
        with pytest.raises(ConfigurationError, match="reuses"):
            ServiceConfig(tenants=(
                TenantSpec("a", "t1"), TenantSpec("b", "t1"),
            ))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(listen="no-port")
        with pytest.raises(ConfigurationError):
            ServiceConfig(tenants=())
        with pytest.raises(ConfigurationError):
            ServiceConfig(round_events=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_frame_bytes=16)
        with pytest.raises(ConfigurationError):
            ServiceConfig(hello_timeout=0.0)
        with pytest.raises(ConfigurationError):
            TenantSpec("", "t")
        with pytest.raises(ConfigurationError):
            TenantSpec("a", "")

    def test_tenant_lookup(self):
        config = ServiceConfig()
        assert config.tenant("default").token == "dev-token"
        with pytest.raises(ConfigurationError, match="unknown tenant"):
            config.tenant("nope")


class TestFramedStream:
    def test_stream_bit_identical(self, rr, expected):
        with _default_gateway() as gateway:
            with ServiceClient(gateway.address) as client:
                client.open("s1")
                _feed_all(client, rr)
                result = client.finalize()
            assert _wire_view(result) == expected
            # Windows were pushed live, one frame per spectrogram row.
            # Full-length windows carry the common frequency grid and
            # match their spectrogram row exactly; the tail window is
            # emitted on its own (shorter) grid and only its regridded
            # form lands in the spectrogram.
            assert len(client.windows) == expected["n_windows"]
            grid_len = len(expected["frequencies"])
            for frame in client.windows:
                if len(frame["power"]) == grid_len:
                    assert frame["power"] == (
                        expected["spectrogram"][frame["index"]]
                    )
            full = [
                f for f in client.windows if len(f["power"]) == grid_len
            ]
            assert len(full) >= expected["n_windows"] - 1
            assert counts_from_dict(result["counts"]) is not None

    def test_disconnect_reconnect_bit_identical(self, rr, expected):
        with _default_gateway() as gateway:
            first = ServiceClient(gateway.address)
            first.open("s1")
            half = rr.times.size // 2
            _feed_all(
                first,
                RRSeries(times=rr.times[:half], intervals=rr.intervals[:half]),
            )
            first.sync()
            first.close(notify=False)  # abrupt: no close frame
            # The server notices the EOF asynchronously; the re-attach
            # below retries while the stale endpoint unbinds.
            deadline = time.monotonic() + 10.0
            while True:
                second = ServiceClient(gateway.address)
                try:
                    second.open("s1")
                    break
                except ServiceError:
                    second.close()
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            with second:
                _feed_all(
                    second,
                    RRSeries(
                        times=rr.times[half:], intervals=rr.intervals[half:]
                    ),
                )
                result = second.finalize()
            assert _wire_view(result) == expected

    def test_second_live_consumer_rejected(self, rr):
        with _default_gateway() as gateway:
            with ServiceClient(gateway.address) as client:
                client.open("s1")
                intruder = ServiceClient(gateway.address)
                with pytest.raises(ServiceError, match="live async"):
                    intruder.open("s1")
                intruder.close(notify=False)
                # The original connection is unaffected.
                _feed_all(client, rr)
                assert client.finalize()["n_windows"] > 0

    def test_bad_feed_is_non_fatal(self, rr, expected):
        with _default_gateway() as gateway:
            with ServiceClient(gateway.address) as client:
                client.open("s1")
                client._send({"op": "feed", "t": "junk", "rr": None})
                client._send({"op": "nonsense"})
                _feed_all(client, rr)
                result = client.finalize()
            assert _wire_view(result) == expected
            assert len(client.errors) == 2
            assert all(not e.get("fatal") for e in client.errors)


class TestRejectionIsolation:
    """Bad connections die alone; their neighbours stream on."""

    def _raw_exchange(self, address: str, payload: bytes) -> dict:
        host, port = address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.settimeout(30)
            sock.sendall(payload)
            data = b""
            while b"\n" not in data:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                data += chunk
        return decode_frame(data.splitlines()[0])

    def test_auth_and_protocol_rejections(self, rr, expected):
        config = ServiceConfig(
            listen="127.0.0.1:0", count_ops=True, max_frame_bytes=4096
        )
        with GatewayThread(config) as gateway:
            healthy = ServiceClient(gateway.address)
            healthy.open("s1")
            half = rr.times.size // 2
            _feed_all(
                healthy,
                RRSeries(times=rr.times[:half], intervals=rr.intervals[:half]),
            )

            # Wrong token.
            bad = ServiceClient(gateway.address, token="wrong")
            with pytest.raises(ServiceError, match="authentication"):
                bad.open("sX")
            bad.close(notify=False)
            # Unknown tenant.
            bad = ServiceClient(gateway.address, tenant="ghost")
            with pytest.raises(ServiceError, match="authentication"):
                bad.open("sX")
            bad.close(notify=False)
            # Malformed JSON frame.
            frame = self._raw_exchange(gateway.address, b'{"op": oops\n')
            assert frame["op"] == "error" and frame["fatal"]
            # Not a hello.
            frame = self._raw_exchange(
                gateway.address, encode_frame({"op": "feed", "t": [], "rr": []})
            )
            assert frame["op"] == "error" and frame["fatal"]
            # Oversized frame (past max_frame_bytes=4096).
            huge = b'{"op": "hello", "pad": "' + b"x" * 8192 + b'"}\n'
            frame = self._raw_exchange(gateway.address, huge)
            assert frame["op"] == "error" and frame["fatal"]
            assert "max_frame_bytes" in frame["error"]

            # The healthy neighbour never noticed.
            _feed_all(
                healthy,
                RRSeries(times=rr.times[half:], intervals=rr.intervals[half:]),
            )
            result = healthy.finalize()
            healthy.close()
            assert _wire_view(result) == expected


class TestGracefulDrain:
    def test_drain_mid_stream_bit_identical(self, rr, expected):
        gateway = _default_gateway()
        gateway.__enter__()
        try:
            client = ServiceClient(gateway.address)
            client.open("s1")
            _feed_all(client, rr)
            client.sync()  # all feeds ingested before the drain starts
            gateway.shutdown()
            result = client.wait_result()
            shutdown = client.wait_shutdown()
            client.close()
            assert _wire_view(result) == expected
            assert shutdown["op"] == "shutdown"
            # Every window reached the client before the result frame.
            assert len(client.windows) == expected["n_windows"]
        finally:
            gateway.__exit__(None, None, None)

    def test_short_subject_does_not_poison_drain(self, rr, expected):
        gateway = _default_gateway()
        gateway.__enter__()
        try:
            good = ServiceClient(gateway.address)
            good.open("good")
            _feed_all(good, rr)
            good.sync()
            short = ServiceClient(gateway.address)
            short.open("short")
            short.feed(rr.times[:5], rr.intervals[:5])
            short.sync()
            gateway.shutdown()
            result = good.wait_result()
            assert _wire_view(result) == expected
            # The too-short subject gets the shutdown frame with the
            # finalize failure attached instead of a result.
            notice = short.wait_shutdown()
            assert short.result is None
            assert "at least" in notice.get("error", "")
            good.close()
            short.close()
            stats = gateway.server.stats()
            assert "short" in stats["tenants"]["default"]["drain_errors"]
        finally:
            gateway.__exit__(None, None, None)


class TestRest:
    def test_analyze_bit_identical(self, rr, expected):
        with _default_gateway() as gateway:
            result = rest_analyze(
                gateway.address, "dev-token", rr.times, rr.intervals,
                count_ops=True,
            )
            assert result == expected

    def test_auth_and_routing_errors(self, rr):
        with _default_gateway() as gateway:
            with pytest.raises(ServiceError, match="401"):
                rest_stats(gateway.address, "wrong-token")
            with pytest.raises(ServiceError, match="404"):
                rest_windows(gateway.address, "dev-token", "ghost")
            with pytest.raises(ServiceError, match="404"):
                from repro.service.client import _rest_request

                _rest_request(gateway.address, "GET", "/nope", "dev-token")

    def test_windows_and_stats(self, rr, expected):
        with _default_gateway() as gateway:
            with ServiceClient(gateway.address) as client:
                client.open("s1")
                _feed_all(client, rr)
                client.sync()
                live = rest_windows(gateway.address, "dev-token", "s1")
                assert not live["finalized"]
                assert len(live["windows"]) > 0
                for window in live["windows"]:
                    assert window["power"] == (
                        expected["spectrogram"][window["index"]]
                    )
                client.finalize()
            done = rest_windows(gateway.address, "dev-token", "s1")
            assert done["finalized"]
            assert len(done["windows"]) == expected["n_windows"]
            # The session serving this read kept its windows, not the
            # samples they were computed from.
            session = gateway.server._tenants["default"].hub.session("s1")
            assert session.n_samples == rr.times.size
            assert session.buffered_samples == 0
            grid_len = len(expected["frequencies"])
            for window in done["windows"]:
                # Raw emissions: full-length windows sit on the common
                # grid (== their spectrogram row); the tail keeps its
                # own shorter grid.
                if len(window["power"]) == grid_len:
                    assert window["power"] == (
                        expected["spectrogram"][window["index"]]
                    )
            stats = rest_stats(gateway.address, "dev-token")
            assert stats["controller"] is None  # no SLO on this tenant
            assert stats["service"]["wire"]["frames_in"] > 0
            assert "resolved" in stats["engine"]
            assert "plan_cache" in stats["engine"]


class TestTenantMatrix:
    """The acceptance cohort: 2 tenants, both systems, SLO armed."""

    def test_interleaved_tenants_bit_identical(self):
        recordings = {
            "s-a": _synthetic_rr(seed=11),
            "s-b": _synthetic_rr(seed=12),
        }
        conventional = EngineConfig.for_mode("exact")
        # Quality-scalable system with the SLO controller armed; the
        # target is generous, so the ladder never actually sheds and
        # finalize stays comparable to the plain whole-recording run.
        scalable = EngineConfig.for_mode("set3").replace(
            slo=SLOSpec(target_p95_ms=60_000.0)
        )
        config = ServiceConfig(
            listen="127.0.0.1:0",
            tenants=(
                TenantSpec("conv", "token-conv", conventional),
                TenantSpec("qs", "token-qs", scalable),
            ),
            count_ops=True,
        )
        reference: dict = {}
        for name, engine_config in (("conv", conventional), ("qs", scalable)):
            with Engine(engine_config) as engine:
                for subject, series in recordings.items():
                    reference[(name, subject)] = result_to_dict(
                        engine.analyze(series, count_ops=True)
                    )
        with GatewayThread(config) as gateway:
            clients = {
                (tenant, subject): ServiceClient(
                    gateway.address, tenant=tenant, token=f"token-{tenant}"
                )
                for tenant in ("conv", "qs")
                for subject in recordings
            }
            for (tenant, subject), client in clients.items():
                client.open(subject)
            # Interleave feeds across tenants and subjects, chunk by
            # chunk — four concurrent streams multiplexing two hubs.
            chunk = 50
            longest = max(s.times.size for s in recordings.values())
            dropped_once = False
            for lo in range(0, longest, chunk):
                for key, client in list(clients.items()):
                    series = recordings[key[1]]
                    if lo >= series.times.size:
                        continue
                    client.feed(
                        series.times[lo : lo + chunk],
                        series.intervals[lo : lo + chunk],
                    )
                    if not dropped_once and key == ("qs", "s-a") and lo >= (
                        series.times.size // 2
                    ):
                        # One mid-stream disconnect/reconnect on the
                        # quality-scalable tenant.
                        client.sync()
                        client.close(notify=False)
                        dropped_once = True
                        deadline = time.monotonic() + 10.0
                        while True:
                            fresh = ServiceClient(
                                gateway.address, tenant="qs",
                                token="token-qs",
                            )
                            try:
                                fresh.open("s-a")
                                break
                            except ServiceError:
                                fresh.close()
                                if time.monotonic() > deadline:
                                    raise
                                time.sleep(0.05)
                        clients[key] = fresh
            assert dropped_once
            results = {}
            for key, client in clients.items():
                results[key] = client.finalize()
                client.close()
            for key, result in results.items():
                assert _wire_view(result) == reference[key], key
                # OpCounts travelled and match bit-for-bit too.
                assert result["counts"] == reference[key]["counts"]
            # The SLO controller was armed on the qs tenant (and only
            # there) and never had reason to shed.
            qs_stats = rest_stats(gateway.address, "token-qs")
            assert qs_stats["controller"] is not None
            assert qs_stats["controller"]["steps_down"] == 0
            conv_stats = rest_stats(gateway.address, "token-conv")
            assert conv_stats["controller"] is None
