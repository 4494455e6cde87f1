"""The multiplexed streaming hub is bit-identical and interleaving-proof.

The PR 5 acceptance bar: a :class:`StreamHub` multiplexing K subjects'
streams — fed in round-robin, ragged or bursty interleavings, via the
synchronous API or the asyncio push transport — must finalize every
subject bit-identical (spectrogram *and* executed :class:`OpCounts`)
to whole-recording :meth:`Engine.analyze`, for both PSA systems, every
pruning mode, every registered provider, and both execution systems
(in-process shared batches and fleet-pool dispatch with ``jobs > 1``).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import Engine, EngineConfig, RRSeries, make_cohort
from repro.errors import SignalError
from repro.ffts.providers.registry import available_providers

#: Subjects of the test ward (distinct dynamics: RSA and control).
SUBJECTS = ("rsa-00", "rsa-01", "ctl-00")


@pytest.fixture(scope="module")
def recordings():
    cohort = make_cohort()
    return {
        patient_id: cohort.get(patient_id).rr_series(duration=600.0)
        for patient_id in SUBJECTS
    }


#: Every pruning mode of the paper, plus both exact systems.
ALL_MODE_CONFIGS = [
    pytest.param(EngineConfig(provider="numpy"), id="conventional"),
    pytest.param(
        EngineConfig(system="quality-scalable", provider="numpy"),
        id="wavelet-exact",
    ),
    pytest.param(EngineConfig.for_mode("band", provider="numpy"), id="band"),
    pytest.param(EngineConfig.for_mode("set1", provider="numpy"), id="set1"),
    pytest.param(EngineConfig.for_mode("set2", provider="numpy"), id="set2"),
    pytest.param(EngineConfig.for_mode("set3", provider="numpy"), id="set3"),
    pytest.param(
        EngineConfig.for_mode("set3", dynamic=True, provider="numpy"),
        id="set3-dynamic",
    ),
]

#: The three distinct feed-interleaving orders of the acceptance bar.
ORDERS = ("round-robin", "ragged", "bursty")


def interleave(recordings, order: str):
    """Yield ``(subject, times, values)`` events in the given order.

    * ``round-robin`` — fixed 20-beat chunks, subjects cycled fairly;
    * ``ragged``      — per-event chunk sizes drawn from 1..40, subjects
      cycled (chunks drift out of phase);
    * ``bursty``      — one subject dumps a 150-beat burst while the
      others trickle 5-beat chunks, rotating the bursty subject.
    """
    rng = np.random.default_rng(2014 + ORDERS.index(order))
    cursors = {subject: 0 for subject in recordings}
    subjects = list(recordings)
    turn = 0
    while any(
        cursors[subject] < recordings[subject].times.size
        for subject in subjects
    ):
        for position, subject in enumerate(subjects):
            rr = recordings[subject]
            lo = cursors[subject]
            if lo >= rr.times.size:
                continue
            if order == "round-robin":
                size = 20
            elif order == "ragged":
                size = int(rng.integers(1, 41))
            else:
                bursty = subjects[turn % len(subjects)]
                size = 150 if subject == bursty else 5
            hi = min(lo + size, rr.times.size)
            cursors[subject] = hi
            yield subject, rr.times[lo:hi], rr.intervals[lo:hi]
        turn += 1


def assert_identical(batch, streamed):
    assert np.array_equal(batch.welch.frequencies, streamed.welch.frequencies)
    assert np.array_equal(batch.welch.spectrogram, streamed.welch.spectrogram)
    assert np.array_equal(batch.welch.averaged, streamed.welch.averaged)
    assert np.array_equal(batch.welch.window_times, streamed.welch.window_times)
    assert batch.welch.skipped_windows == streamed.welch.skipped_windows
    assert batch.counts == streamed.counts
    assert batch.lf_hf == streamed.lf_hf
    assert batch.band_powers == streamed.band_powers
    for got, want in zip(
        streamed.welch.window_spectra, batch.welch.window_spectra
    ):
        assert np.array_equal(got.power, want.power)
        assert got.counts == want.counts


def run_hub(engine, recordings, order: str, flush_every: int = 7):
    """Replay an interleaving through one hub, flushing periodically."""
    hub = engine.open_hub(count_ops=True)
    for count, (subject, times, values) in enumerate(
        interleave(recordings, order), 1
    ):
        hub.feed(subject, times, values)
        if count % flush_every == 0:
            hub.flush()
    return hub.finalize_all()


class TestInterleavingInvariance:
    """The acceptance matrix: orders x modes x providers x systems."""

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("config", ALL_MODE_CONFIGS)
    def test_all_modes_all_orders(self, config, order, recordings):
        with Engine(config) as engine:
            batch = {
                subject: engine.analyze(rr, count_ops=True)
                for subject, rr in recordings.items()
            }
            results = run_hub(engine, recordings, order)
        assert set(results) == set(recordings)
        for subject in recordings:
            assert_identical(batch[subject], results[subject])

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize(
        "provider",
        [name for name, ok in available_providers().items() if ok],
    )
    def test_every_registered_provider(self, provider, order, recordings):
        config = EngineConfig.for_mode("set3", provider=provider)
        with Engine(config) as engine:
            batch = {
                subject: engine.analyze(rr, count_ops=True)
                for subject, rr in recordings.items()
            }
            results = run_hub(engine, recordings, order)
        for subject in recordings:
            assert_identical(batch[subject], results[subject])

    @pytest.mark.slow
    @pytest.mark.parametrize("order", ORDERS)
    def test_fleet_pool_dispatch(self, order, recordings):
        """jobs > 1 routes shared batches over the persistent pool.

        The whole ward is flushed in one shared batch (``flush_every``
        past the event count) so it carries enough windows to split
        across workers — tiny batches deliberately stay in-process.
        """
        config = EngineConfig(provider="numpy", jobs=2)
        with Engine(config) as engine:
            batch = {
                subject: engine.analyze(rr, count_ops=True)
                for subject, rr in recordings.items()
            }
            results = run_hub(
                engine, recordings, order, flush_every=10_000
            )
            # The hub really used the persistent fleet pool.
            assert engine._fleet is not None
            assert engine._fleet._pool is not None
        for subject in recordings:
            assert_identical(batch[subject], results[subject])


class TestHubProtocol:
    def test_feed_auto_opens_and_defers(self, recordings):
        rr = recordings["rsa-00"]
        with Engine(EngineConfig(provider="numpy")) as engine:
            hub = engine.open_hub()
            completed = hub.feed("ward-7", rr.times[:400], rr.intervals[:400])
            assert completed > 0
            assert hub.subjects == ("ward-7",)
            assert hub.pending_windows == completed
            session = hub.session("ward-7")
            assert session.subject_id == "ward-7"
            assert session.n_windows == 0  # deferred, nothing analysed yet
            emitted = hub.flush()
            assert [e.index for e in emitted["ward-7"]] == list(
                range(completed)
            )
            assert hub.pending_windows == 0
            assert session.n_windows == completed

    def test_session_feed_returns_empty_under_hub(self, recordings):
        rr = recordings["rsa-00"]
        with Engine(EngineConfig(provider="numpy")) as engine:
            hub = engine.open_hub()
            session = hub.open("a")
            assert session.feed(rr.times[:400], rr.intervals[:400]) == []
            assert hub.pending_windows > 0

    def test_feed_round_flushes_once(self, recordings):
        with Engine(EngineConfig(provider="numpy")) as engine:
            hub = engine.open_hub()
            events = [
                (subject, rr.times[:300], rr.intervals[:300])
                for subject, rr in recordings.items()
            ]
            emitted = hub.feed_round(events)
            assert set(emitted) <= set(recordings)
            assert sum(len(v) for v in emitted.values()) > 0
            assert hub.pending_windows == 0

    def test_duplicate_open_rejected(self):
        with Engine(EngineConfig(provider="numpy")) as engine:
            hub = engine.open_hub()
            hub.open("a")
            with pytest.raises(SignalError, match="already open"):
                hub.open("a")

    def test_unknown_subject_rejected(self):
        with Engine(EngineConfig(provider="numpy")) as engine:
            hub = engine.open_hub()
            with pytest.raises(SignalError, match="unknown subject"):
                hub.session("nope")

    def test_flush_empty_is_noop(self):
        with Engine(EngineConfig(provider="numpy")) as engine:
            hub = engine.open_hub()
            assert hub.flush() == {}

    def test_finalize_single_subject(self, recordings):
        rr = recordings["rsa-00"]
        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = engine.analyze(rr, count_ops=True)
            hub = engine.open_hub(count_ops=True)
            for lo in range(0, rr.times.size, 64):
                hub.feed("a", rr.times[lo : lo + 64], rr.intervals[lo : lo + 64])
            result = hub.finalize("a")
            assert hub.finalize("a") is result  # idempotent
        assert_identical(batch, result)

    def test_finalize_all_requires_subjects(self):
        with Engine(EngineConfig(provider="numpy")) as engine:
            hub = engine.open_hub()
            with pytest.raises(SignalError, match="no subjects"):
                hub.finalize_all()

    def test_too_short_subject_named(self, recordings):
        rr = recordings["rsa-00"]
        with Engine(EngineConfig(provider="numpy")) as engine:
            hub = engine.open_hub()
            hub.feed("ok", rr.times, rr.intervals)
            hub.feed("tiny", [0.0, 1.0], [0.8, 0.8])
            with pytest.raises(SignalError, match="tiny"):
                hub.finalize_all()

    def test_closed_hub_rejects_feeds(self, recordings):
        rr = recordings["rsa-00"]
        with Engine(EngineConfig(provider="numpy")) as engine:
            with engine.open_hub() as hub:
                hub.feed("a", rr.times[:100], rr.intervals[:100])
                session = hub.session("a")
            with pytest.raises(SignalError, match="closed"):
                hub.feed("a", rr.times[100:200], rr.intervals[100:200])
            with pytest.raises(SignalError, match="closed"):
                session.feed(rr.times[100:200], rr.intervals[100:200])
            # The rejection happened *before* ingestion: no samples were
            # consumed, so no window can have been silently discarded.
            assert session.n_samples == 100
            assert hub.pending_windows == 0  # close dropped pending

    def test_finalize_after_close_discarded_windows_fails_loudly(
        self, recordings
    ):
        """close() with pending windows poisons finalize, not silences it."""
        rr = recordings["rsa-00"]
        with Engine(EngineConfig(provider="numpy")) as engine:
            hub = engine.open_hub()
            hub.feed("a", rr.times, rr.intervals)
            assert hub.pending_windows > 0
            session = hub.session("a")
            hub.close()  # discards the completed-but-unanalysed windows
            with pytest.raises(SignalError, match="discarded"):
                session.finalize()

    def test_finalize_all_atomic_on_doomed_subject(self, recordings):
        """A doomed sibling fails the call without corrupting others.

        The failure must surface *before* any tail is analysed and
        recorded, and a later single-subject finalize must not
        re-record the healthy subject's tail (emit-once guard) — the
        result stays bit-identical, not duplicated.
        """
        rr = recordings["rsa-00"]
        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = engine.analyze(rr, count_ops=True)
            hub = engine.open_hub(count_ops=True)
            hub.feed("good", rr.times, rr.intervals)
            doomed_t = np.linspace(0.0, 30.0, 20)
            hub.feed("doomed", doomed_t, np.full(20, 0.8))
            with pytest.raises(SignalError, match="doomed"):
                hub.finalize_all()
            with pytest.raises(SignalError, match="doomed"):
                hub.finalize_all()  # retry fails the same way, safely
            result = hub.finalize("good")
        assert_identical(batch, result)

    def test_finalize_all_releases_sample_buffers(self, recordings):
        """Finalized hub sessions stay registered without their samples."""
        subjects = ("rsa-00", "rsa-01")
        with Engine(EngineConfig(provider="numpy")) as engine:
            hub = engine.open_hub()
            for subject in subjects:
                rr = recordings[subject]
                hub.feed(subject, rr.times, rr.intervals)
            results = hub.finalize_all()
            for subject in subjects:
                session = hub.session(subject)
                assert session.n_samples == recordings[subject].times.size
                assert session.buffered_samples == 0
                assert session._times.size == 0
                assert hub.finalize(subject) is results[subject]
                with pytest.raises(SignalError, match="finalized"):
                    hub.feed(subject, [1e6], [0.8])
                assert_identical(
                    engine.analyze(recordings[subject]), results[subject]
                )

    def test_sparse_hub_session_memory_stays_bounded(self, recordings):
        """A subject that never completes a window must still compact."""
        rr = recordings["rsa-00"]
        # Three beats per two-minute window: every window is dropped by
        # the keep rule, so this subject never joins a shared batch.
        sparse_t = np.arange(0.0, 150_000.0, 40.0)
        sparse_x = np.full(sparse_t.size, 0.8)
        with Engine(EngineConfig(provider="numpy")) as engine:
            hub = engine.open_hub()
            hub.feed("dense", rr.times, rr.intervals)
            for lo in range(0, sparse_t.size, 100):
                hub.feed(
                    "sparse",
                    sparse_t[lo : lo + 100],
                    sparse_x[lo : lo + 100],
                )
            hub.flush()
            session = hub.session("sparse")
            assert session.n_samples == sparse_t.size
            assert session._dropped > 0
            assert session.buffered_samples < 3000

    def test_flush_failure_keeps_pending_for_retry(
        self, recordings, monkeypatch
    ):
        """A failing shared batch must not drop the round's windows."""
        rr = recordings["rsa-00"]
        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = engine.analyze(rr, count_ops=True)
            hub = engine.open_hub(count_ops=True)
            hub.feed("a", rr.times, rr.intervals)
            pending = hub.pending_windows
            assert pending > 0

            def boom(*args, **kwargs):
                raise RuntimeError("fleet worker died mid-flush")

            with monkeypatch.context() as patch:
                patch.setattr(engine, "_analyze_spans_batch", boom)
                with pytest.raises(RuntimeError, match="died"):
                    hub.flush()
            assert hub.pending_windows == pending  # retained, not lost
            result = hub.finalize("a")  # retry succeeds completely
        assert_identical(batch, result)

    def test_skips_not_double_counted_after_failed_finalize_all(self):
        """Tail skip counts survive a failed finalize_all + retry."""
        # Dense 300 s, then a sparse tail whose first window is *kept*
        # by the span rule but skipped by the MIN_BEATS rule — a skip
        # that is only discovered at finalize time.
        t = np.concatenate(
            [np.arange(0.0, 300.0, 1.0), np.arange(300.0, 420.0, 10.0)]
        )
        x = 0.8 + 0.01 * np.sin(2 * np.pi * 0.25 * t)
        rr = RRSeries(times=t, intervals=x)
        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = engine.analyze(rr, count_ops=True)
            assert batch.welch.skipped_windows > 0
            hub = engine.open_hub(count_ops=True)
            hub.feed("good", t, x)
            hub.feed("doomed", np.linspace(0.0, 30.0, 20), np.full(20, 0.8))
            with pytest.raises(SignalError, match="doomed"):
                hub.finalize_all()
            result = hub.finalize("good")
        assert_identical(batch, result)  # skipped_windows included

    def test_mixed_finalize_then_finalize_all(self, recordings):
        """Individually finalized subjects keep their result in the map."""
        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = {
                subject: engine.analyze(rr, count_ops=True)
                for subject, rr in recordings.items()
            }
            hub = engine.open_hub(count_ops=True)
            for subject, rr in recordings.items():
                hub.feed(subject, rr.times, rr.intervals)
            first = hub.finalize("rsa-00")
            results = hub.finalize_all()
            assert results["rsa-00"] is first
        for subject in recordings:
            assert_identical(batch[subject], results[subject])


class TestAsyncTransport:
    @pytest.mark.parametrize("config", ALL_MODE_CONFIGS)
    def test_serve_bit_identical(self, config, recordings):
        events = list(interleave(recordings, "ragged"))

        async def scenario(engine):
            hub = engine.open_hub(count_ops=True)
            return await hub.serve(events, round_events=5)

        with Engine(config) as engine:
            batch = {
                subject: engine.analyze(rr, count_ops=True)
                for subject, rr in recordings.items()
            }
            results = asyncio.run(scenario(engine))
        for subject in recordings:
            assert_identical(batch[subject], results[subject])

    @pytest.mark.parametrize("order", ORDERS)
    def test_serve_all_orders(self, order, recordings):
        events = list(interleave(recordings, order))

        async def scenario(engine):
            return await engine.open_hub(count_ops=True).serve(
                events, round_events=9
            )

        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = {
                subject: engine.analyze(rr, count_ops=True)
                for subject, rr in recordings.items()
            }
            results = asyncio.run(scenario(engine))
        for subject in recordings:
            assert_identical(batch[subject], results[subject])

    def test_async_session_feed_iterate_finalize(self, recordings):
        rr = recordings["rsa-00"]

        async def scenario(engine):
            hub = engine.open_hub(count_ops=True)
            session = hub.open_async("a")
            consumed = []

            async def consume():
                async for emission in session:
                    consumed.append(emission)

            task = asyncio.create_task(consume())
            for lo in range(0, rr.times.size, 50):
                await session.feed(
                    rr.times[lo : lo + 50], rr.intervals[lo : lo + 50]
                )
            result = await session.finalize()
            await task
            return result, consumed

        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = engine.analyze(rr, count_ops=True)
            result, consumed = asyncio.run(scenario(engine))
        assert_identical(batch, result)
        # Every window was delivered in order — including the trailing
        # ones finalize resolves, pushed before the end-of-stream marker.
        assert [e.index for e in consumed] == list(
            range(result.welch.n_windows)
        )

    def test_bounded_queue_backpressures_feeder(self, recordings):
        """A full emission queue makes feed await until consumed."""
        rr = recordings["rsa-00"]

        async def scenario(engine):
            hub = engine.open_hub()
            session = hub.open_async("a", max_queue=1)
            fed_all = asyncio.Event()

            async def feed_everything():
                for lo in range(0, rr.times.size, 100):
                    await session.feed(
                        rr.times[lo : lo + 100], rr.intervals[lo : lo + 100]
                    )
                fed_all.set()

            feeder = asyncio.create_task(feed_everything())
            # Give the feeder plenty of turns: it must stall on the
            # 1-slot queue once two windows have been emitted.
            for _ in range(50):
                await asyncio.sleep(0)
            stalled = not fed_all.is_set()
            consumed = []

            async def consume_everything():
                async for emission in session:
                    consumed.append(emission)

            consumer = asyncio.create_task(consume_everything())
            await asyncio.wait_for(feeder, timeout=10.0)  # drained now
            await session.aclose()  # end-of-stream for the consumer
            await asyncio.wait_for(consumer, timeout=10.0)
            return stalled, consumed

        with Engine(EngineConfig(provider="numpy")) as engine:
            stalled, consumed = asyncio.run(scenario(engine))
        assert stalled  # backpressure engaged
        assert len(consumed) >= 2  # and draining released it

    def test_concurrent_finalize_delivers_every_window(self, recordings):
        """No subject's live emissions are lost to a sibling's finalize.

        All subjects feed and finalize concurrently on 1-slot queues —
        the interleaving where one subject's finalize (holding the
        delivery lock) used to flush siblings' freshly completed
        windows and silently discard their delivery.
        """

        async def scenario(engine):
            hub = engine.open_hub()
            sessions = {
                subject: hub.open_async(subject, max_queue=1)
                for subject in recordings
            }
            counts = {}

            async def consume(subject):
                counts[subject] = sum(
                    [1 async for _ in sessions[subject]]
                )

            consumers = [
                asyncio.create_task(consume(subject))
                for subject in recordings
            ]

            async def feed_and_finalize(subject):
                rr = recordings[subject]
                for lo in range(0, rr.times.size, 60):
                    await sessions[subject].feed(
                        rr.times[lo : lo + 60], rr.intervals[lo : lo + 60]
                    )
                return subject, await sessions[subject].finalize()

            results = dict(
                await asyncio.gather(
                    *(feed_and_finalize(subject) for subject in recordings)
                )
            )
            await asyncio.wait_for(asyncio.gather(*consumers), timeout=30.0)
            return results, counts

        with Engine(EngineConfig(provider="numpy")) as engine:
            results, counts = asyncio.run(scenario(engine))
        for subject, result in results.items():
            assert counts[subject] == result.welch.n_windows

    def test_aclose_on_full_queue_releases_blocked_feeder(self, recordings):
        """Abandoning a consumer neither blocks nor wedges the feeder."""
        rr = recordings["rsa-00"]

        async def scenario(engine):
            hub = engine.open_hub(count_ops=True)
            session = hub.open_async("a", max_queue=1)

            async def feed_everything():
                for lo in range(0, rr.times.size, 100):
                    await session.feed(
                        rr.times[lo : lo + 100], rr.intervals[lo : lo + 100]
                    )

            feeder = asyncio.create_task(feed_everything())
            for _ in range(50):
                await asyncio.sleep(0)
            assert not feeder.done()  # wedged on the abandoned queue
            assert hub.async_session("a") is session
            await session.aclose()  # never blocks; releases the feeder
            # Ended: its full queue has no reader, so nothing (the
            # gateway's shutdown drain included) may route to it.
            assert hub.async_session("a") is None
            await asyncio.wait_for(feeder, timeout=10.0)
            return hub.finalize("a")  # supervisor still gets the result

        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = engine.analyze(rr, count_ops=True)
            result = asyncio.run(scenario(engine))
        assert_identical(batch, result)

    def test_serve_cancellation_is_clean(self, recordings):
        """A cancelled serve leaves the hub consistent and finalizable."""
        events = list(interleave(recordings, "round-robin"))

        async def scenario(engine):
            hub = engine.open_hub(count_ops=True)
            gate = asyncio.Event()

            async def slow_reader():
                for count, event in enumerate(events):
                    if count == len(events) // 2:
                        gate.set()  # mid-stream: let the test cancel us
                        await asyncio.sleep(3600)
                    yield event

            task = asyncio.create_task(hub.serve(slow_reader()))
            await gate.wait()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # The hub survived: replay the rest synchronously and
            # finalize — results must still be bit-identical.
            consumed = {subject: 0 for subject in recordings}
            for subject, times, values in events:
                fed = hub.session(subject).n_samples if subject in hub.subjects else 0
                if fed >= consumed[subject] + times.size:
                    consumed[subject] += times.size
                    continue  # serve already delivered this event
                hub.feed(subject, times, values)
                consumed[subject] += times.size
            return hub.finalize_all()

        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = {
                subject: engine.analyze(rr, count_ops=True)
                for subject, rr in recordings.items()
            }
            results = asyncio.run(scenario(engine))
        for subject in recordings:
            assert_identical(batch[subject], results[subject])

    def test_serve_without_finalize_leaves_hub_open(self, recordings):
        rr = recordings["rsa-00"]
        half = rr.times.size // 2

        async def scenario(engine):
            hub = engine.open_hub(count_ops=True)
            first = [("a", rr.times[:half], rr.intervals[:half])]
            second = [("a", rr.times[half:], rr.intervals[half:])]
            assert await hub.serve(first, finalize=False) is None
            return await hub.serve(second)

        with Engine(EngineConfig(provider="numpy")) as engine:
            batch = engine.analyze(rr, count_ops=True)
            results = asyncio.run(scenario(engine))
        assert_identical(batch, results["a"])

    def test_serve_delivers_tail_windows_to_consumers(self, recordings):
        rr = recordings["rsa-00"]
        events = [
            ("a", rr.times[lo : lo + 80], rr.intervals[lo : lo + 80])
            for lo in range(0, rr.times.size, 80)
        ]

        async def scenario(engine):
            hub = engine.open_hub()
            session = hub.open_async("a")

            async def consume():
                return [emission async for emission in session]

            task = asyncio.create_task(consume())
            results = await hub.serve(events, round_events=3)
            return results["a"], await task

        with Engine(EngineConfig(provider="numpy")) as engine:
            result, consumed = asyncio.run(scenario(engine))
        assert [e.index for e in consumed] == list(
            range(result.welch.n_windows)
        )

    def test_close_unblocks_async_consumers(self):
        """close() must deliver end-of-stream, not strand consumers."""

        async def scenario(engine):
            hub = engine.open_hub()
            session = hub.open_async("a")

            async def consume():
                return [emission async for emission in session]

            task = asyncio.create_task(consume())
            await asyncio.sleep(0)  # let the consumer block on the queue
            hub.close()
            return await asyncio.wait_for(task, timeout=5.0)

        with Engine(EngineConfig(provider="numpy")) as engine:
            assert asyncio.run(scenario(engine)) == []

    def test_serve_failure_still_ends_consumers(self, recordings):
        """A raising finalize_all must not leave consumers hanging."""
        rr = recordings["rsa-00"]
        # >= MIN_BEATS beats, but all inside half a window: this subject
        # can never produce an analysable window.
        doomed_t = np.linspace(0.0, 30.0, 20)
        events = [
            ("good", rr.times, rr.intervals),
            ("doomed", doomed_t, np.full(20, 0.8)),
        ]

        async def scenario(engine):
            hub = engine.open_hub()
            session = hub.open_async("good")

            async def consume():
                return sum([1 async for _ in session])

            task = asyncio.create_task(consume())
            with pytest.raises(SignalError, match="doomed"):
                await hub.serve(events)
            return await asyncio.wait_for(task, timeout=5.0)

        with Engine(EngineConfig(provider="numpy")) as engine:
            consumed = asyncio.run(scenario(engine))
        assert consumed > 0  # got the live windows, then end-of-stream

    def test_serve_feed_failure_still_ends_consumers(self, recordings):
        """A mid-stream feed error must not strand consumers either."""
        rr = recordings["rsa-00"]
        events = [
            ("good", rr.times[:400], rr.intervals[:400]),
            # Non-monotonic resend: hub.feed raises inside the loop.
            ("good", rr.times[100:200], rr.intervals[100:200]),
        ]

        async def scenario(engine):
            hub = engine.open_hub()
            session = hub.open_async("good")

            async def consume():
                return sum([1 async for _ in session])

            task = asyncio.create_task(consume())
            with pytest.raises(SignalError, match="strictly increasing"):
                await hub.serve(events, round_events=1)
            return await asyncio.wait_for(task, timeout=5.0)

        with Engine(EngineConfig(provider="numpy")) as engine:
            consumed = asyncio.run(scenario(engine))
        assert consumed >= 0  # consumer ended instead of hanging

    def test_async_finalize_failure_ends_consumer(self):
        """await finalize() on a doomed subject must end iteration."""

        async def scenario(engine):
            hub = engine.open_hub()
            session = hub.open_async("doomed")

            async def consume():
                return [emission async for emission in session]

            task = asyncio.create_task(consume())
            await session.feed(np.linspace(0.0, 30.0, 20), np.full(20, 0.8))
            with pytest.raises(SignalError, match="no analysable"):
                await session.finalize()
            return await asyncio.wait_for(task, timeout=5.0)

        with Engine(EngineConfig(provider="numpy")) as engine:
            assert asyncio.run(scenario(engine)) == []

    def test_serve_rejects_bad_round(self):
        async def scenario(engine):
            return await engine.open_hub().serve([], round_events=0)

        with Engine(EngineConfig(provider="numpy")) as engine:
            with pytest.raises(SignalError, match="round_events"):
                asyncio.run(scenario(engine))
