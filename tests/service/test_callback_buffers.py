"""Bounded callback buffers on :class:`QueryHandle`.

A push subscriber that never drains ``handle.changes()`` must not grow the
service's memory forever: a callback handle keeps no change buffer unless
it passes ``max_pending``, and then a bounded one that drops the *oldest*
undrained change once full, while the callback itself still sees every
alert.  Pure-poll handles stay unbounded unless bounded explicitly.  This
module pins these semantics down, including under the asynchronous
ingestion path.
"""

import asyncio

from repro.query.query import ContinuousQuery
from repro.service import AsyncMonitoringService, MonitoringService
from tests.conftest import make_document

#: the watched term and a query over it
TERM = 0


def watch_query(query_id=0, k=1):
    return ContinuousQuery(query_id=query_id, weights={TERM: 1.0}, k=k)


def escalating_documents(count):
    """Documents with strictly increasing scores: each one enters the top-1,
    so every ingest produces exactly one result change per subscribed query."""
    return [
        make_document(index, {TERM: 0.05 * (index + 1)}, arrival_time=float(index + 1))
        for index in range(count)
    ]


def fill_service(service, count):
    for document in escalating_documents(count):
        service.ingest(document)


class TestSlowConsumerOverflow:
    def test_oldest_changes_dropped_once_bound_is_reached(self):
        deliveries = []
        with MonitoringService() as service:
            handle = service.subscribe(
                watch_query(),
                on_change=deliveries.append,
                max_pending=5,
            )
            fill_service(service, 12)

            # The slow consumer finds only the newest five changes...
            assert handle.pending_changes == 5
            drained = list(handle.changes())
            assert [alert.document.doc_id for alert in drained] == [7, 8, 9, 10, 11]
            assert handle.pending_changes == 0
            # ...but the push callback saw every single one.
            assert [alert.document.doc_id for alert in deliveries] == list(range(12))

    def test_callback_handles_keep_no_buffer_by_default(self):
        deliveries = []
        with MonitoringService() as service:
            handle = service.subscribe(watch_query(), on_change=deliveries.append)
            fill_service(service, 12)
            assert handle._pending is None
            assert handle.pending_changes == 0
            assert list(handle.changes()) == []
            assert [alert.document.doc_id for alert in deliveries] == list(range(12))

    def test_explicit_bound_wins_over_the_default(self):
        with MonitoringService() as service:
            handle = service.subscribe(
                watch_query(), on_change=lambda alert: None, max_pending=3
            )
            assert handle._pending.maxlen == 3

    def test_poll_handles_stay_unbounded_by_default(self):
        with MonitoringService() as service:
            handle = service.subscribe(watch_query())
            fill_service(service, 12)
            assert handle._pending.maxlen is None
            assert handle.pending_changes == 12
            assert len(list(handle.changes())) == 12

    def test_poll_handles_can_opt_into_a_bound(self):
        with MonitoringService() as service:
            handle = service.subscribe(watch_query(), max_pending=4)
            fill_service(service, 12)
            assert handle.pending_changes == 4
            drained = [alert.document.doc_id for alert in handle.changes()]
            assert drained == [8, 9, 10, 11]


class TestOverflowIsPerHandle:
    def test_one_slow_handle_does_not_affect_another(self):
        with MonitoringService() as service:
            slow = service.subscribe(
                watch_query(0), on_change=lambda alert: None, max_pending=2
            )
            fast = service.subscribe(watch_query(1))
            fill_service(service, 10)
            assert slow.pending_changes == 2
            assert fast.pending_changes == 10

    def test_buffered_changes_survive_unsubscribe(self):
        with MonitoringService() as service:
            handle = service.subscribe(
                watch_query(), on_change=lambda alert: None, max_pending=3
            )
            fill_service(service, 8)
            handle.unsubscribe()
            assert not handle.active
            # The bound still applies to what remained buffered.
            assert [alert.document.doc_id for alert in handle.changes()] == [5, 6, 7]


class TestAsyncPathHonoursTheSameBounds:
    def test_async_ingest_applies_identical_drop_semantics(self):
        async def run():
            deliveries = []
            async with AsyncMonitoringService(batch_size=4) as service:
                handle = await service.subscribe(
                    watch_query(),
                    on_change=deliveries.append,
                    max_pending=5,
                )
                await service.ingest(escalating_documents(12))
                return deliveries, [alert.document.doc_id for alert in handle.changes()]

        deliveries, drained = asyncio.run(run())
        assert drained == [7, 8, 9, 10, 11]
        assert [alert.document.doc_id for alert in deliveries] == list(range(12))
