"""Remote-worker rejoin and the configurable worker timeout.

Satellite coverage of PR 8's robustness work on the socket transport:
:meth:`RemoteWorker.reconnect` (bounded exponential backoff with
deterministic jitter, cumulative ``reconnects``/``connect_failures``
counters, refusals not retried), scheduler re-admission after an
injected mid-run death, and the ``worker_timeout`` resolution chain
(config → ``REPRO_WORKER_TIMEOUT`` env pin → default).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig
from repro.envpins import WORKER_TIMEOUT_ENV_VAR, worker_timeout_env_pin
from repro.errors import ConfigurationError
from repro.fleet.remote import (
    DEFAULT_TIMEOUT,
    RECONNECT_ATTEMPTS,
    RemoteWorker,
    WorkerDaemon,
    run_worker_daemon,
)
from repro.testing import WorkerDeathTrigger


@pytest.fixture(scope="module")
def shared_daemon():
    with WorkerDaemon() as daemon:
        daemon.start()
        yield daemon


class TestReconnect:
    def test_rejoins_after_connection_drop(self, shared_daemon):
        worker = RemoteWorker(shared_daemon.address, timeout=10.0)
        config = EngineConfig().pinned()
        worker.connect(config)
        assert worker.reconnects == 0
        worker._drop()  # the wire dies; the daemon survives
        info = worker.reconnect(config, base_delay=0.001)
        assert info["provider"] == config.provider
        assert worker.reconnects == 1
        assert worker.connect_failures == 0
        worker.reset_arrays()  # ping/pong works on the new session
        worker.close()

    def test_gives_up_after_bounded_attempts(self):
        worker = RemoteWorker("127.0.0.1:9", timeout=0.25)
        with pytest.raises(ConnectionError, match="2 reconnect attempts"):
            worker.reconnect(
                EngineConfig().pinned(),
                attempts=2, base_delay=0.001, max_delay=0.002,
            )
        assert worker.connect_failures == 2
        assert worker.reconnects == 0

    def test_refusal_is_not_retried(self, shared_daemon, monkeypatch):
        """A daemon that *answers* and refuses fails fast, no backoff."""
        from repro.ffts.providers import registry

        worker = RemoteWorker(shared_daemon.address, timeout=10.0)
        config = EngineConfig(provider="scipy").pinned()
        monkeypatch.setattr(registry, "provider_available", lambda name: False)
        with pytest.raises(ConfigurationError, match="unavailable"):
            worker.reconnect(config, base_delay=0.001)
        worker.close()

    def test_default_attempt_budget_is_bounded(self):
        assert 1 <= RECONNECT_ATTEMPTS <= 10

    def test_jitter_is_deterministic_per_address(self):
        """Same address+attempt always sleeps the same; addresses differ."""
        import zlib

        def jitter(address, attempt):
            seed = zlib.crc32(f"{address}#{attempt}".encode())
            return 0.5 * (seed % 1000) / 1000.0

        assert jitter("a:1", 0) == jitter("a:1", 0)
        assert jitter("a:1", 0) != jitter("b:1", 0)


@pytest.mark.slow
class TestSchedulerReadmission:
    def test_flush_survives_injected_death_and_rejoins(self, shared_daemon):
        rng = np.random.default_rng(11)
        warm_rr = 0.8 + 0.05 * rng.standard_normal(3000)
        warm_t = np.cumsum(warm_rr)
        rr = 0.8 + 0.05 * rng.standard_normal(6000)
        t2 = float(warm_t[-1]) + np.cumsum(rr)
        config = EngineConfig(system="quality-scalable", jobs=1)
        with Engine(config) as local:
            stream = local.open_stream()
            reference = stream.feed(warm_t, warm_rr)
            reference += stream.feed(t2, rr)
        remote_config = config.replace(workers=(shared_daemon.address,))
        with Engine(remote_config) as engine:
            hub = engine.open_hub()
            session = hub.open("chaos")
            session.feed(warm_t, warm_rr)
            hub.flush()
            runner = engine._ensure_fleet()
            worker = runner._remote_registry[shared_daemon.address]
            baseline = worker.reconnects
            trigger = WorkerDeathTrigger(worker, after_tasks=0)
            session.feed(t2, rr)
            hub.flush()
            trigger.cancel()
            assert trigger.deaths == 1
            stats = runner.transport_stats()[shared_daemon.address]
            assert stats["reconnects"] >= baseline + 1
            # The death-interrupted run emitted the same spectra the
            # in-process engine computes for the identical history.
            emissions = session.emissions
            assert len(emissions) == len(reference)
            for got, want in zip(emissions, reference):
                assert np.array_equal(
                    got.spectrum.power, want.spectrum.power
                )


class TestWorkerTimeoutResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(WORKER_TIMEOUT_ENV_VAR, raising=False)
        resolved = EngineConfig().resolve()
        assert resolved.worker_timeout == DEFAULT_TIMEOUT
        assert resolved.worker_timeout_source == "default"

    def test_config_field(self, monkeypatch):
        monkeypatch.setenv(WORKER_TIMEOUT_ENV_VAR, "99")
        resolved = EngineConfig(worker_timeout=3.5).resolve()
        assert resolved.worker_timeout == 3.5
        assert resolved.worker_timeout_source == "config"

    def test_env_pin(self, monkeypatch):
        monkeypatch.setenv(WORKER_TIMEOUT_ENV_VAR, "7.5")
        resolved = EngineConfig().resolve()
        assert resolved.worker_timeout == 7.5
        assert resolved.worker_timeout_source == "env"

    def test_env_pin_helper_validates(self, monkeypatch):
        monkeypatch.setenv(WORKER_TIMEOUT_ENV_VAR, "not-a-number")
        with pytest.raises(ConfigurationError, match=WORKER_TIMEOUT_ENV_VAR):
            worker_timeout_env_pin()
        monkeypatch.setenv(WORKER_TIMEOUT_ENV_VAR, "0")
        with pytest.raises(ConfigurationError, match=WORKER_TIMEOUT_ENV_VAR):
            worker_timeout_env_pin()
        monkeypatch.setenv(WORKER_TIMEOUT_ENV_VAR, "")
        assert worker_timeout_env_pin() is None
        monkeypatch.delenv(WORKER_TIMEOUT_ENV_VAR)
        assert worker_timeout_env_pin() is None

    @pytest.mark.parametrize("bad", [0, -1.0, "soon"])
    def test_config_rejects_bad_timeout(self, bad):
        with pytest.raises(ConfigurationError, match="worker_timeout"):
            EngineConfig(worker_timeout=bad)

    def test_round_trips_through_dict(self):
        config = EngineConfig(worker_timeout=4.25)
        assert EngineConfig.from_dict(config.to_dict()).worker_timeout == 4.25

    def test_engine_passes_timeout_to_fleet(self):
        with Engine(EngineConfig(worker_timeout=6.0, jobs=1)) as engine:
            assert engine.resolved.worker_timeout == 6.0
            assert engine._ensure_fleet().config.worker_timeout == 6.0


class TestDaemonHeartbeatOption:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ConfigurationError, match="heartbeat"):
            run_worker_daemon("127.0.0.1:0", heartbeat_interval=0.0)

    def test_daemon_carries_interval(self):
        with WorkerDaemon(heartbeat_interval=0.25) as daemon:
            assert daemon.heartbeat_interval == 0.25
