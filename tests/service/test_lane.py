"""Unit tests of the one-worker ingestion lane.

Determinism (submission order, content), backpressure (bounded in-flight
batches), failure propagation and lifecycle of
:class:`~repro.service.lane.IngestLane`, over a single ITA engine and a
sharded cluster alike -- the lane makes no difference between them.
End-to-end equivalence with the synchronous path lives in
``tests/service/test_async_service.py`` and ``tests/conformance/``.
"""

import asyncio
import threading
import time

import pytest

from repro.cluster.engine import ShardedEngine
from repro.core.engine import ITAEngine
from repro.documents.window import CountBasedWindow, TimeBasedWindow
from repro.exceptions import ConfigurationError, ServiceError
from repro.service import AsyncMonitoringService
from repro.service.lane import IngestLane
from tests.conftest import StreamCase

KINDS = ["ita", "sharded"]


def make_engine(kind, make_window=lambda: CountBasedWindow(16), engine_class=ITAEngine,
                num_shards=3):
    if kind == "ita":
        return engine_class(make_window())
    return ShardedEngine(
        num_shards=num_shards,
        shard_factory=lambda: engine_class(make_window()),
        placement="round-robin",
    )


def register_case(engine, case):
    for query in case.queries:
        engine.register_query(query)


def chunked(documents, size):
    return [documents[start : start + size] for start in range(0, len(documents), size)]


class SlowEngine(ITAEngine):
    """An ITA engine whose batch path sleeps -- makes the producer outrun it."""

    delay = 0.002

    def process_batch_events(self, documents):
        time.sleep(self.delay)
        return super().process_batch_events(documents)


class FailingEngine(ITAEngine):
    """An ITA engine that blows up on a chosen document id."""

    fail_on = None

    def process_batch_events(self, documents):
        if any(document.doc_id == self.fail_on for document in documents):
            raise RuntimeError(f"engine refused document {self.fail_on}")
        return super().process_batch_events(documents)


class TestConstruction:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("queue_depth", [0, -1])
    def test_rejects_degenerate_shapes(self, kind, queue_depth):
        with pytest.raises(ConfigurationError):
            IngestLane(make_engine(kind), queue_depth=queue_depth)


@pytest.mark.parametrize("kind", KINDS)
class TestOrderingAndEquivalence:
    def test_futures_resolve_in_submission_order_with_correct_content(self, kind):
        case = StreamCase(seed=5, num_documents=90)
        sync_engine = make_engine(kind)
        async_engine = make_engine(kind)
        register_case(sync_engine, case)
        register_case(async_engine, case)
        batches = chunked(case.documents, 7)
        expected = [sync_engine.process_batch_events(batch) for batch in batches]

        async def run():
            completion_order = []
            async with IngestLane(async_engine) as lane:
                futures = []
                for index, batch in enumerate(batches):
                    future = await lane.submit(batch)
                    future.add_done_callback(
                        lambda _f, index=index: completion_order.append(index)
                    )
                    futures.append(future)
                results = [await future for future in futures]
            return results, completion_order

        results, completion_order = asyncio.run(run())
        assert results == expected
        assert completion_order == list(range(len(batches)))
        assert async_engine.current_results() == sync_engine.current_results()

    def test_empty_batch_resolves_immediately(self, kind):
        async def run():
            async with IngestLane(make_engine(kind)) as lane:
                future = await lane.submit([])
                assert await future == []
                assert lane.stats.batches == 0

        asyncio.run(run())

    def test_advance_time_matches_synchronous_engine(self, kind):
        case = StreamCase(seed=29, num_documents=60)

        def make_time_engine():
            engine = make_engine(
                kind, make_window=lambda: TimeBasedWindow(9.0), num_shards=2
            )
            register_case(engine, case)
            return engine

        sync_engine = make_time_engine()
        sync_engine.process_batch(case.documents)
        final_time = case.documents[-1].arrival_time + 30.0
        expected_changes = sync_engine.advance_time(final_time)

        async def run():
            engine = make_time_engine()
            async with IngestLane(engine) as lane:
                await lane.submit(case.documents)
                changes = await lane.advance_time(final_time)
            return engine, changes

        async_engine, actual_changes = asyncio.run(run())
        assert actual_changes == expected_changes
        assert async_engine.current_results() == sync_engine.current_results()
        assert len(async_engine.window) == len(sync_engine.window)


@pytest.mark.parametrize("kind", KINDS)
class TestBackpressure:
    def test_inflight_batches_stay_bounded_by_queue_depth(self, kind):
        case = StreamCase(seed=11, num_documents=120)
        engine = make_engine(kind, engine_class=SlowEngine, num_shards=2)
        register_case(engine, case)
        queue_depth = 2

        async def run():
            async with IngestLane(engine, queue_depth=queue_depth) as lane:
                for batch in chunked(case.documents, 6):
                    await lane.submit(batch)
                await lane.drain()
                return lane.stats

        stats = asyncio.run(run())
        assert stats.batches == 20
        assert stats.events == 120
        assert stats.inflight == 0
        # The producer runs far ahead of the sleeping engine, so without
        # the bound every batch would be in flight at once; with it the
        # producer waits, and the wait is accounted for.
        assert stats.max_inflight == queue_depth
        assert stats.submit_wait_ms > 0.0
        assert stats.busy.count == 20
        assert stats.busy_ms >= 20 * SlowEngine.delay * 1000.0


@pytest.mark.parametrize("kind", KINDS)
class TestFailurePropagation:
    def make_failing(self, kind, case, gate=None):
        class Failing(FailingEngine):
            fail_on = case.documents[25].doc_id

            def process_batch_events(self, documents):
                assert gate is None or gate.wait(timeout=5.0)
                return super().process_batch_events(documents)

        engine = make_engine(kind, engine_class=Failing, num_shards=2)
        register_case(engine, case)
        return engine

    def test_failure_reaches_the_batch_future_and_poisons_the_lane(self, kind):
        case = StreamCase(seed=17, num_documents=40)
        engine = self.make_failing(kind, case)

        async def run():
            async with IngestLane(engine) as lane:
                good = await lane.submit(case.documents[:20])
                assert await good  # the healthy batch still resolves
                bad = await lane.submit(case.documents[20:30])
                with pytest.raises(RuntimeError, match="engine refused"):
                    await bad
                # After a failure the lane refuses further work...
                with pytest.raises(ServiceError):
                    await lane.submit(case.documents[30:])
                # ...and drain() surfaces the root cause.
                with pytest.raises(ServiceError) as excinfo:
                    await lane.drain()
                assert isinstance(excinfo.value.__cause__, RuntimeError)

        asyncio.run(run())

    def test_batches_queued_behind_a_failure_are_not_applied(self, kind):
        case = StreamCase(seed=17, num_documents=40)
        gate = threading.Event()
        engine = self.make_failing(kind, case, gate)

        async def run():
            async with IngestLane(engine, queue_depth=4) as lane:
                # The worker is held on the first batch until all four are
                # submitted: the fourth is queued when the third fails.
                futures = [
                    await lane.submit(batch) for batch in chunked(case.documents, 10)
                ]
                gate.set()
                assert await futures[0] is not None
                assert await futures[1] is not None
                with pytest.raises(RuntimeError, match="engine refused"):
                    await futures[2]
                with pytest.raises(ServiceError) as excinfo:
                    await futures[3]
                assert isinstance(excinfo.value.__cause__, RuntimeError)

        asyncio.run(run())
        # The batch queued behind the refused one never reached the engine.
        applied = {doc.doc_id for doc in engine.window}
        assert applied.isdisjoint(doc.doc_id for doc in case.documents[30:])


@pytest.mark.parametrize("kind", KINDS)
class TestCancelledAwaits:
    def test_cancelling_an_await_does_not_wedge_the_lane(self, kind):
        """A timed-out ``wait_for`` around a batch future must not cancel
        the batch: it is still processed, later batches still resolve, and
        close stays clean (regression test)."""
        case = StreamCase(seed=61, num_documents=60)
        engine = make_engine(kind, engine_class=SlowEngine, num_shards=2)
        register_case(engine, case)

        async def run():
            async with IngestLane(engine) as lane:
                first = await lane.submit(case.documents[:20])
                # Not shielded by the caller: the timeout cancels `first`,
                # and `second` is cancelled while still queued behind it.
                second = await lane.submit(case.documents[20:40])
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(first, timeout=0.0001)
                second.cancel()
                # The lane must keep accepting and resolving work.
                third = await lane.submit(case.documents[40:])
                assert await third is not None
                await lane.drain()
                assert lane.stats.inflight == 0
                # All three batches ran on the worker despite the
                # cancelled awaits.
                assert lane.stats.busy.count == 3

        asyncio.run(run())
        assert [doc.doc_id for doc in engine.window] == [
            doc.doc_id for doc in case.documents[-16:]
        ]


@pytest.mark.parametrize("kind", KINDS)
class TestLifecycle:
    def test_submit_before_start_and_after_close_raise(self, kind):
        async def run():
            lane = IngestLane(make_engine(kind))
            with pytest.raises(ServiceError):
                await lane.submit([])
            await lane.start()
            with pytest.raises(ServiceError):
                await lane.start()
            await lane.aclose()
            assert lane.closed
            with pytest.raises(ServiceError):
                await lane.submit([])
            with pytest.raises(ServiceError):
                await lane.start()
            await lane.aclose()  # idempotent

        asyncio.run(run())

    def test_aclose_flushes_submitted_batches(self, kind):
        case = StreamCase(seed=19, num_documents=60)
        engine = make_engine(kind)
        register_case(engine, case)

        async def run():
            lane = IngestLane(engine, queue_depth=3)
            await lane.start()
            futures = [
                await lane.submit(batch) for batch in chunked(case.documents, 10)
            ]
            await lane.aclose()  # no explicit drain
            assert all(future.done() for future in futures)
            return lane.stats

        stats = asyncio.run(run())
        assert stats.batches == 6
        assert stats.inflight == 0


def test_every_shard_of_an_async_served_cluster_runs_on_one_off_loop_thread():
    """The async façade drives a sharded engine through the cluster's own
    ``process_batch_events`` on the lane's single worker: no shard ever
    runs on the event loop, and no two shards on different threads."""
    calls = []

    class SpyEngine(ITAEngine):
        def process_batch_events(self, documents):
            calls.append((id(self), threading.get_ident()))
            return super().process_batch_events(documents)

    case = StreamCase(seed=71, num_documents=60)
    cluster = make_engine("sharded", engine_class=SpyEngine, num_shards=4)

    async def run():
        async with AsyncMonitoringService(cluster, batch_size=8) as service:
            for query in case.queries:
                await service.subscribe(query, k=query.k)
            await service.ingest(case.documents)
        return threading.get_ident()

    loop_thread = asyncio.run(run())
    assert {shard for shard, _ in calls} == {id(shard) for shard in cluster.shards}
    threads = {thread for _, thread in calls}
    assert len(threads) == 1
    assert loop_thread not in threads
