"""The asynchronous service façade.

The headline guarantee -- the acceptance criterion of the async ingestion
subsystem -- is that :class:`~repro.service.AsyncMonitoringService` on the
sharded figure-3(a) workload produces *bit-identical* snapshots and change
streams to sequential ``ingest``.  The rest of the module covers the
async API surface: serve() wiring, drain-before-read
semantics, alert ordering, lifecycle and argument validation.
"""

import asyncio

import pytest

from repro.documents.window import WindowSpec
from repro.exceptions import ServiceError
from repro.query.query import ContinuousQuery
from repro.service import (
    AsyncMonitoringService,
    EngineSpec,
    MonitoringService,
    spec_from_name,
)
from tests.conftest import StreamCase


def fresh_service(name="sharded-ita-3", window=14):
    return MonitoringService(spec_from_name(name, window=WindowSpec.count(window)))


def run(coroutine):
    return asyncio.run(coroutine)


class TestFigure3aAcceptance:
    """Bit-identity on the paper's figure-3(a) workload, sharded."""

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.workloads.experiments import figure_3a
        from repro.workloads.generators import build_workload

        definition = figure_3a("smoke")
        point = next(p for p in definition.points if p.label.startswith("n=10"))
        return point.config, build_workload(point.config)

    def test_async_matches_sequential_bit_for_bit(self, workload):
        config, generated = workload
        spec = spec_from_name(
            "sharded-ita-4", window=WindowSpec.count(config.window_size)
        )
        stream = list(generated.prefill) + list(generated.measured)

        def subscribed(service):
            for query in generated.queries:
                service.subscribe(
                    ContinuousQuery(
                        query_id=query.query_id, weights=query.weights, k=query.k
                    )
                )
            return service

        sequential = subscribed(MonitoringService(spec))
        sequential_changes = sequential.ingest(stream)

        async def concurrent_run():
            async with AsyncMonitoringService(
                spec, queue_depth=2, batch_size=32
            ) as service:
                subscribed(service.service)
                changes = await service.ingest(stream)
                return changes, await service.results(), await service.snapshot()

        async_changes, async_results, async_snapshot = run(concurrent_run())
        assert async_changes == sequential_changes
        assert async_results == sequential.results()
        assert async_snapshot == sequential.snapshot()


class TestIngestEquivalence:
    @pytest.mark.parametrize("name", ["ita", "naive", "sharded-ita-3"])
    @pytest.mark.parametrize("batch_size", [1, 7, 200])
    def test_changes_and_state_match_sync_for_any_batch_size(self, name, batch_size):
        case = StreamCase(seed=31, num_documents=110)
        sync_service = fresh_service(name)
        for query in case.queries:
            sync_service.subscribe(query)
        expected_changes = sync_service.ingest(case.documents)

        async def concurrent_run():
            service = fresh_service(name)
            async with AsyncMonitoringService(service, batch_size=batch_size) as aservice:
                for query in case.queries:
                    await aservice.subscribe(query)
                changes = await aservice.ingest(case.documents)
                return service, changes

        async_service, actual_changes = run(concurrent_run())
        assert actual_changes == expected_changes
        assert async_service.results() == sync_service.results()
        assert async_service.counters.as_dict() == sync_service.counters.as_dict()

    def test_raw_text_ingest_stamps_ids_and_clock_like_sync(self):
        texts = [f"breaking news about topic {index % 3}" for index in range(9)]
        sync_service = MonitoringService()
        sync_service.subscribe("breaking topic news", k=3)
        sync_service.ingest(texts)

        async def concurrent_run():
            service = MonitoringService()
            async with service.serve(batch_size=4) as aservice:
                await aservice.subscribe("breaking topic news", k=3)
                await aservice.ingest(texts)
                return service

        async_service = run(concurrent_run())
        assert async_service.clock == sync_service.clock
        assert async_service.results() == sync_service.results()
        assert async_service.snapshot() == sync_service.snapshot()


class TestAlertDelivery:
    def test_alerts_arrive_in_stream_order_with_documents(self):
        case = StreamCase(seed=41, num_documents=80)
        def collect_sync():
            service = fresh_service()
            alerts = []
            for query in case.queries:
                service.subscribe(query, on_change=alerts.append)
            service.ingest(case.documents)
            return [
                (alert.query_id, alert.document.doc_id if alert.document else None)
                for alert in alerts
            ]

        async def collect_async():
            alerts = []
            async with AsyncMonitoringService(
                fresh_service(), batch_size=9
            ) as service:
                for query in case.queries:
                    await service.subscribe(query, on_change=alerts.append)
                await service.ingest(case.documents)
            return [
                (alert.query_id, alert.document.doc_id if alert.document else None)
                for alert in alerts
            ]

        assert run(collect_async()) == collect_sync()

    def test_mid_stream_subscription_sees_only_later_documents(self):
        case = StreamCase(seed=43, num_documents=60)
        sync_service = fresh_service()
        sync_service.subscribe(case.queries[0])
        sync_service.ingest(case.documents[:30])
        sync_service.subscribe(case.queries[1])
        sync_service.ingest(case.documents[30:])

        async def concurrent_run():
            service = fresh_service()
            async with AsyncMonitoringService(service, batch_size=8) as aservice:
                await aservice.subscribe(case.queries[0])
                await aservice.ingest(case.documents[:30])
                # subscribe() drains, so the initial result covers exactly
                # the 30 documents above -- same as the sync run.
                await aservice.subscribe(case.queries[1])
                await aservice.ingest(case.documents[30:])
            return service

        assert run(concurrent_run()).results() == sync_service.results()

    def test_unsubscribe_stops_alerts_like_sync(self):
        case = StreamCase(seed=47, num_documents=40)

        async def concurrent_run():
            service = fresh_service()
            async with AsyncMonitoringService(service, batch_size=6) as aservice:
                handle = await aservice.subscribe(case.queries[0])
                await aservice.ingest(case.documents[:20])
                await aservice.unsubscribe(handle.query_id)
                await aservice.ingest(case.documents[20:])
                assert handle.query_id not in service.query_ids()
            return service

        run(concurrent_run())


class TestFailedIngestKeepsSubscribersInStep:
    """An ``ingest`` that fails part-way must still deliver the alerts of
    every batch it already handed to the lane: those batches are applied
    (and logged), so dropping their alerts would leave subscribers behind
    the engine and the WAL."""

    #: ever shorter documents score ever higher, so each one enters the
    #: top-k on arrival: one alert per applied document
    TEXTS = [
        "market news " + " ".join(f"filler{word}" for word in range(40 - index))
        for index in range(40)
    ]

    @staticmethod
    def doc_ids(alerts):
        return [alert.document.doc_id for alert in alerts]

    def reference(self, count):
        alerts = []
        service = MonitoringService(
            EngineSpec(kind="sharded", num_shards=2, window=WindowSpec.count(50))
        )
        service.on_change(alerts.append)
        handle = service.subscribe("market news", k=3)
        service.ingest(self.TEXTS[:count])
        return self.doc_ids(alerts), handle.result(), service

    def test_producer_side_error_delivers_the_batches_already_submitted(self, tmp_path):
        from repro import DurabilityPolicy
        from repro.exceptions import ConfigurationError

        spec = EngineSpec(
            kind="sharded",
            num_shards=2,
            window=WindowSpec.count(50),
            durability=DurabilityPolicy(fsync="never"),
        )

        def poisoned():
            yield from self.TEXTS[:30]
            yield 31  # not ingestible: the 31st element kills the producer

        async def scenario():
            alerts = []
            service = MonitoringService.open(tmp_path, spec)
            service.on_change(alerts.append)
            async with service.serve(batch_size=4, queue_depth=4) as serving:
                handle = await serving.subscribe("market news", k=3)
                with pytest.raises(ConfigurationError):
                    await serving.ingest(poisoned())
                # 7 full batches were handed to the lane; the 2 documents
                # still on the producer side were never accepted.
                applied = len(service.window)
                seen = self.doc_ids(alerts)
                result = handle.result()
                # The service stays usable and the next alert is in step
                # (ids 28 and 29 went to the two rejected documents).
                await serving.ingest(self.TEXTS[28])
                assert self.doc_ids(alerts)[len(seen):] == [30]
                final = await serving.results()
            service.close()
            return applied, seen, result, final

        applied, seen, result, final = run(scenario())
        expected_alerts, expected_result, _ = self.reference(28)
        assert applied == 28
        assert seen == expected_alerts == list(range(28))  # not just batch one's
        assert result == expected_result
        # ...and the WAL agrees: a crash right now recovers the same state.
        recovered = MonitoringService.open(tmp_path)
        assert recovered.results() == final
        assert len(recovered.window) == 29
        recovered.close()

    def test_raising_callback_does_not_drop_later_batches(self):
        async def scenario():
            alerts = []

            def callback(alert):
                alerts.append(alert)
                if alert.document.doc_id == 5:
                    raise ValueError("subscriber bug")

            async with AsyncMonitoringService(
                EngineSpec(kind="sharded", num_shards=2, window=WindowSpec.count(50)),
                batch_size=4,
                queue_depth=4,
            ) as serving:
                handle = await serving.subscribe("market news", k=3, on_change=callback)
                with pytest.raises(ValueError, match="subscriber bug"):
                    await serving.ingest(self.TEXTS[:24])
                return self.doc_ids(alerts), handle.result(), len(serving.service.window)

        seen, result, applied = run(scenario())
        # The error stops the producer, so how many batches made it to the
        # lane depends on timing -- at least the raising one (docs 4..7).
        assert applied >= 8 and applied % 4 == 0
        expected_alerts, expected_result, _ = self.reference(applied)
        # Like the synchronous façade, the rest of the raising batch (docs
        # 6 and 7) is not delivered; every other applied batch is, in order.
        assert seen == [doc for doc in expected_alerts if doc not in (6, 7)]
        assert result == expected_result


class TestLifecycleAndValidation:
    def test_ingest_requires_start(self):
        async def attempt():
            service = AsyncMonitoringService()
            with pytest.raises(ServiceError):
                await service.ingest(["text"])

        run(attempt())

    def test_start_is_idempotent_and_aclose_keeps_sync_service_open(self):
        async def lifecycle():
            service = AsyncMonitoringService(EngineSpec())
            await service.start()
            await service.start()
            assert service.started
            await service.aclose()
            assert not service.started
            # The wrapped synchronous service is still usable.
            service.service.ingest("still alive")
            await service.close()
            assert service.service.closed

        run(lifecycle())

    def test_rejects_service_kwargs_alongside_prebuilt_service(self):
        with pytest.raises(ServiceError):
            AsyncMonitoringService(MonitoringService(), interarrival=2.0)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_non_positive_batch_size(self, bad):
        with pytest.raises(ServiceError):
            AsyncMonitoringService(batch_size=bad)

        async def bad_call():
            async with AsyncMonitoringService() as service:
                with pytest.raises(ServiceError):
                    await service.ingest(["text"], batch_size=bad)

        run(bad_call())

    def test_stats_expose_pipeline_progress(self):
        case = StreamCase(seed=53, num_documents=33)

        async def observe():
            async with AsyncMonitoringService(
                fresh_service(), batch_size=10
            ) as service:
                await service.ingest(case.documents)
                return service.stats

        stats = run(observe())
        assert stats.events == 33
        assert stats.batches == 4

    def test_serve_refuses_closed_service(self):
        service = MonitoringService()
        service.close()
        with pytest.raises(ServiceError):
            service.serve()


class TestAdvanceTime:
    def test_advance_time_matches_sync_expiry_alerts(self):
        case = StreamCase(seed=59, num_documents=50)
        spec = spec_from_name("sharded-ita-2", window=WindowSpec.time(8.0))
        final_time = case.documents[-1].arrival_time + 40.0

        sync_service = MonitoringService(spec)
        sync_alerts = []
        for query in case.queries:
            sync_service.subscribe(query, on_change=sync_alerts.append)
        sync_service.ingest(case.documents)
        sync_expiry = sync_service.advance_time(final_time)

        async def concurrent_run():
            alerts = []
            service = MonitoringService(spec)
            async with service.serve(batch_size=7) as aservice:
                for query in case.queries:
                    await aservice.subscribe(query, on_change=alerts.append)
                await aservice.ingest(case.documents)
                expiry = await aservice.advance_time(final_time)
            return service, expiry, alerts

        async_service, async_expiry, async_alerts = run(concurrent_run())
        assert async_expiry == sync_expiry
        assert async_service.clock == sync_service.clock
        assert async_service.results() == sync_service.results()
        assert len(async_alerts) == len(sync_alerts)
        # Expiry alerts carry no triggering document, on both paths.
        assert all(
            alert.document is None
            for alert in async_alerts[len(async_alerts) - len(async_expiry):]
        )
