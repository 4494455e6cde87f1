"""Heterogeneous hub batches are bit-identical to homogeneous runs.

The tentpole invariant of quality-adaptive shedding: a subject pinned
at ladder level M inside a *heterogeneous* flush (other subjects at
other levels, all analysed in one ``analyze_spans_quality`` call whose
FFT stage runs once per level) must emit windows bit-identical —
spectra, executed :class:`OpCounts`, centres and window metrics — to
the same samples run through a hub homogeneously at level M.  Checked
with one subject on every ladder rung for both PSA systems and every
registered provider, and on three rungs across all three transports
(in-process, shm pool, socket daemon), where pool and socket slices
each hold one level.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig, SLOSpec
from repro.ffts.providers.registry import available_providers
from repro.fleet.remote import WorkerDaemon

#: One subject on every rung of the five-level ladder.
LEVELS = {"mon-a": 0, "mon-b": 2, "mon-c": 3, "mon-d": 1, "mon-e": 4}

#: The slow transport matrix keeps three rungs to bound its run time.
TRANSPORT_LEVELS = {"mon-a": 0, "mon-b": 2, "mon-c": 3}


def _providers():
    return [name for name, ok in available_providers().items() if ok]


@pytest.fixture(scope="module")
def shared_daemon():
    with WorkerDaemon() as daemon:
        daemon.start()
        yield daemon


def feed_samples(subject, beats):
    rng = np.random.default_rng(sum(map(ord, subject)))
    rr = 0.8 + 0.05 * rng.standard_normal(beats)
    return np.cumsum(rr), rr


def run_hub(config, levels, beats=420):
    """One flush with every subject pinned at its level; emissions per subject."""
    with Engine(config) as engine:
        hub = engine.open_hub(count_ops=True)
        sessions = {subject: hub.open(subject) for subject in levels}
        for subject, level in levels.items():
            hub.set_quality(subject, level)
        for subject, session in sessions.items():
            times, rr = feed_samples(subject, beats)
            session.feed(times, rr)
        hub.flush()
        return {s: sess.emissions for s, sess in sessions.items()}


def assert_emissions_identical(got, want):
    assert len(got) == len(want) and len(got) > 0
    for g, w in zip(got, want):
        assert g.quality == w.quality
        assert g.start == w.start
        assert g.center == w.center
        assert np.array_equal(g.spectrum.frequencies, w.spectrum.frequencies)
        assert np.array_equal(g.spectrum.power, w.spectrum.power)
        assert g.spectrum.counts == w.spectrum.counts
        assert g.metrics.to_dict() == w.metrics.to_dict()


class TestHeterogeneousBitIdentity:
    @pytest.mark.parametrize("provider", _providers())
    @pytest.mark.parametrize(
        "system", ["conventional", "quality-scalable"]
    )
    def test_matches_homogeneous_per_level(self, system, provider):
        """Every subject of a mixed flush == its homogeneous twin run."""
        config = EngineConfig(system=system, provider=provider, slo=SLOSpec())
        mixed = run_hub(config, LEVELS)
        for subject, level in LEVELS.items():
            homogeneous = run_hub(config, {subject: level})
            assert_emissions_identical(mixed[subject], homogeneous[subject])
            assert all(e.quality == level for e in mixed[subject])

    def test_mixed_flush_is_one_kernel_call(self, monkeypatch):
        """All five levels share one analyze_spans_quality call."""
        import repro.engine.engine as engine_module

        calls = []
        kernel = engine_module.analyze_spans_quality

        def counting(*args, **kwargs):
            calls.append(len(args[3]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(engine_module, "analyze_spans_quality", counting)
        config = EngineConfig(system="quality-scalable", slo=SLOSpec())
        mixed = run_hub(config, LEVELS)
        qualities = {e.quality for emitted in mixed.values() for e in emitted}
        assert qualities == set(range(5))
        assert calls == [sum(map(len, mixed.values()))]

    def test_levels_change_which_spectra_emerge(self):
        """Sanity: degraded levels actually produce different spectra."""
        config = EngineConfig(system="quality-scalable", slo=SLOSpec())
        full = run_hub(config, {"mon-a": 0})["mon-a"]
        deep = run_hub(config, {"mon-a": 3})["mon-a"]
        assert len(full) == len(deep)
        assert any(
            not np.array_equal(f.spectrum.power, d.spectrum.power)
            for f, d in zip(full, deep)
        )
        assert sum(e.spectrum.counts.mults for e in deep) < sum(
            e.spectrum.counts.mults for e in full
        )


@pytest.mark.slow
class TestTransportsAgree:
    """One heterogeneous scenario, bit-identical on all three transports.

    Feeds are sized so each level group slices (several fleet tasks per
    flush) — otherwise the pool/socket paths would quietly fall back to
    the single-batch in-process shortcut and the test would compare
    nothing.
    """

    BEATS = 4200

    def test_in_process_pool_socket(self, shared_daemon):
        config = EngineConfig(system="quality-scalable", slo=SLOSpec())
        reference = run_hub(config, TRANSPORT_LEVELS, beats=self.BEATS)
        pool = run_hub(
            config.replace(jobs=2), TRANSPORT_LEVELS, beats=self.BEATS
        )
        socket_cfg = config.replace(
            jobs=1, workers=(shared_daemon.address,)
        )
        remote = run_hub(socket_cfg, TRANSPORT_LEVELS, beats=self.BEATS)
        for subject in TRANSPORT_LEVELS:
            assert len(reference[subject]) >= 16  # really sliced
            assert_emissions_identical(pool[subject], reference[subject])
            assert_emissions_identical(remote[subject], reference[subject])


class TestQualityRecording:
    def test_emission_quality_follows_level_changes(self):
        """Level changes apply from the next flush; history is kept."""
        config = EngineConfig(system="quality-scalable", slo=SLOSpec())
        with Engine(config) as engine:
            hub = engine.open_hub()
            session = hub.open("mon-a")
            times, rr = feed_samples("mon-a", 420)
            session.feed(times, rr)
            hub.flush()
            hub.set_quality("mon-a", 2)
            t2 = times[-1] + np.cumsum(rr)
            session.feed(t2, rr)
            hub.flush()
            qualities = [e.quality for e in session.emissions]
            assert set(qualities) == {0, 2}
            # Strictly: the early windows are 0, the later ones 2.
            switch = qualities.index(2)
            assert all(q == 0 for q in qualities[:switch])
            assert all(q == 2 for q in qualities[switch:])

    def test_default_hub_emits_level_zero(self):
        config = EngineConfig(system="quality-scalable")
        with Engine(config) as engine:
            hub = engine.open_hub()
            session = hub.open("mon-a")
            times, rr = feed_samples("mon-a", 420)
            session.feed(times, rr)
            hub.flush()
            assert session.emissions
            assert all(e.quality == 0 for e in session.emissions)

    def test_last_flush_levels_histogram(self):
        config = EngineConfig(system="quality-scalable", slo=SLOSpec())
        with Engine(config) as engine:
            hub = engine.open_hub()
            a, b = hub.open("mon-a"), hub.open("mon-b")
            hub.set_quality("mon-b", 1)
            for subject, session in (("mon-a", a), ("mon-b", b)):
                times, rr = feed_samples(subject, 420)
                session.feed(times, rr)
            hub.flush()
            histogram = hub.last_flush_levels
            assert set(histogram) == {0, 1}
            assert histogram[0] == len(a.emissions)
            assert histogram[1] == len(b.emissions)

    def test_finalize_after_mixed_quality_flushes(self):
        """finalize_all still assembles results over degraded history."""
        config = EngineConfig(system="quality-scalable", slo=SLOSpec())
        with Engine(config) as engine:
            hub = engine.open_hub()
            session = hub.open("mon-a")
            hub.set_quality("mon-a", 2)
            times, rr = feed_samples("mon-a", 900)
            session.feed(times, rr)
            results = hub.finalize_all()
            assert "mon-a" in results
            rows = results["mon-a"].welch.spectrogram.shape[0]
            assert rows == len(session.emissions)


class TestControlLoopEndToEnd:
    def test_overload_sheds_and_recovers_through_real_flushes(self):
        """The closed loop through actual hub flushes, fault-driven."""
        from repro.testing import FaultClock, FlushLatencyFault

        config = EngineConfig(
            system="quality-scalable",
            slo=SLOSpec(
                target_p95_ms=20.0, window=2, step_down_after=1,
                recover_after=1, policy="uniform",
            ),
        )
        with Engine(config) as engine:
            hub = engine.open_hub()
            clock = FaultClock().install(hub)
            FlushLatencyFault(
                per_window_ms=10.0, discount=0.3, load=(8.0,) * 6 + (0.01,)
            ).install(hub)
            session = hub.open("mon-a")
            cursor = 0.0
            seen_levels = set()
            for _ in range(20):
                rng = np.random.default_rng(3)
                rr = 0.8 + 0.05 * rng.standard_normal(300)
                times = cursor + np.cumsum(rr)
                session.feed(times, rr)
                cursor = float(times[-1])
                hub.flush()
                seen_levels.add(hub.quality_level("mon-a"))
            stats = hub.controller_stats()
            assert stats["steps_down"] > 0
            assert stats["steps_up"] > 0
            assert max(seen_levels) > 0
            assert hub.quality_level("mon-a") == 0  # fully recovered
            assert set(stats["windows_by_level"]) == seen_levels
            clock.uninstall()
