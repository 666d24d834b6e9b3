"""Tests for the :class:`MonitoringService` façade and query handles."""

import json

import pytest

from repro.core.engine import ITAEngine
from repro.cluster.engine import ShardedEngine
from repro.documents.corpus import InMemoryCorpus
from repro.documents.document import CompositionList, Document
from repro.documents.stream import DocumentStream, FixedRateArrivalProcess
from repro.documents.window import CountBasedWindow
from repro.exceptions import (
    ConfigurationError,
    DocumentError,
    ServiceError,
    UnknownQueryError,
)
from repro.query.query import ContinuousQuery
from repro.service import EngineSpec, MonitoringService, WindowSpec
from repro.text.analyzer import Analyzer
from repro.text.vocabulary import Vocabulary

from tests.conftest import make_document


TEXTS = [
    "breaking news about markets",
    "weather update for tomorrow",
    "markets rally on strong earnings news",
    "storm warning for the coast",
]


def doc_ids(entries):
    return [entry.doc_id for entry in entries]


class TestSubscribeAndIngest:
    def test_text_subscription_matches_low_level_wiring(self):
        """The façade must report exactly what hand-wired parts report."""
        analyzer, vocabulary = Analyzer(), Vocabulary()
        corpus = InMemoryCorpus(TEXTS, analyzer=analyzer, vocabulary=vocabulary)
        engine = ITAEngine(CountBasedWindow(10))
        query = ContinuousQuery.from_text(
            0, "market news", k=2, analyzer=analyzer, vocabulary=vocabulary
        )
        engine.register_query(query)
        engine.process_many(DocumentStream(corpus, FixedRateArrivalProcess(rate=1.0)))

        service = MonitoringService(EngineSpec(window=WindowSpec.count(10)))
        handle = service.subscribe("market news", k=2)
        service.ingest(TEXTS)

        expected = [(e.doc_id, round(e.score, 9)) for e in engine.current_result(0)]
        actual = [(e.doc_id, round(e.score, 9)) for e in handle.result()]
        assert actual == expected

    def test_auto_allocated_query_ids(self):
        service = MonitoringService()
        first = service.subscribe("alpha news", k=1)
        second = service.subscribe("beta news", k=1)
        assert first.query_id != second.query_id
        assert set(service.query_ids()) == {first.query_id, second.query_id}

    def test_subscribe_prebuilt_query(self):
        service = MonitoringService()
        query = ContinuousQuery(7, {1: 1.0}, k=1)
        handle = service.subscribe(query)
        assert handle.query_id == 7
        service.ingest(make_document(0, {1: 0.5}, arrival_time=5.0))
        assert doc_ids(handle.result()) == [0]

    def test_ingest_returns_changes(self):
        service = MonitoringService()
        service.subscribe("market news", k=1)
        changes = service.ingest("breaking news about markets")
        assert len(changes) == 1 and changes[0].changed
        assert not service.ingest("totally unrelated weather")

    def test_ingest_document_and_streamed_document(self):
        service = MonitoringService()
        handle = service.subscribe(ContinuousQuery(0, {1: 1.0}, k=2))
        document = Document(doc_id=0, composition=make_document(0, {1: 0.4}).composition)
        service.ingest(document)
        service.ingest(make_document(5, {1: 0.9}, arrival_time=50.0))
        assert doc_ids(handle.result()) == [5, 0]
        # the clock and id sequence continue after the streamed document
        assert service.clock == 50.0
        service.ingest("plain text arrives later")
        assert service.clock == 51.0

    def test_ingest_explicit_timestamp(self):
        service = MonitoringService()
        service.ingest("first", at=10.0)
        assert service.clock == 10.0
        with pytest.raises(ConfigurationError):
            service.ingest("going backwards", at=5.0)
        with pytest.raises(ConfigurationError):
            service.ingest(["a", "b"], at=20.0)
        # streamed documents carry their own time; an override is rejected
        # rather than silently dropped
        with pytest.raises(ConfigurationError):
            service.ingest(make_document(0, {1: 0.5}, arrival_time=30.0), at=40.0)

    def test_ingest_rejects_unknown_types(self):
        service = MonitoringService()
        service.subscribe("anything at all", k=1)
        with pytest.raises(ConfigurationError):
            service.ingest([42])

    def test_every_ingest_is_one_engine_batch_call(self):
        """One path: a process_batch_events call per ingest, subscribed or not."""
        calls = []
        service = MonitoringService()
        original = service.engine.process_batch_events

        def spying_batch_events(documents):
            calls.append(len(documents))
            return original(documents)

        service.engine.process_batch_events = spying_batch_events
        # low-level registration: no façade subscriber exists
        service.engine.register_query(ContinuousQuery(0, {1: 1.0}, k=1))
        changes = service.ingest(
            [make_document(0, {1: 0.5}, arrival_time=1.0),
             make_document(1, {1: 0.9}, arrival_time=2.0)]
        )
        assert calls == [2]
        assert len(changes) == 2
        seen = []
        service.handle(0, on_change=seen.append)
        service.ingest([make_document(2, {1: 0.95}, arrival_time=3.0)])
        service.ingest(make_document(3, {1: 0.99}, arrival_time=4.0))
        assert calls == [2, 1, 1]
        assert [alert.document.doc_id for alert in seen] == [2, 3]

    def test_columnar_kernel_serves_subscribers(self):
        """With a subscriber present the fused kernel is what runs."""
        from repro.index.columnar.kernel import columnar_batch_events

        service = MonitoringService(EngineSpec(storage="columnar"))
        engine = service.engine
        assert engine._batch_kernel is columnar_batch_events
        calls = []

        def spying_kernel(target, documents):
            calls.append(len(documents))
            return columnar_batch_events(target, documents)

        def reference_path(document):
            raise AssertionError("the per-event reference path ran")

        engine._batch_kernel = spying_kernel
        engine.process = reference_path
        seen = []
        service.subscribe(ContinuousQuery(0, {1: 1.0}, k=1), on_change=seen.append)
        service.ingest(
            [make_document(0, {1: 0.5}, arrival_time=1.0),
             make_document(1, {1: 0.9}, arrival_time=2.0)]
        )
        service.ingest(make_document(2, {1: 0.95}, arrival_time=3.0))
        assert calls == [2, 1]
        assert [alert.document.doc_id for alert in seen] == [0, 1, 2]

    def test_callback_polling_result_sees_the_post_batch_state(self):
        """Alerts are dispatched after the batch was applied."""
        service = MonitoringService()
        polled = []
        handle = service.subscribe(
            ContinuousQuery(0, {1: 1.0}, k=1),
            on_change=lambda alert: polled.append(
                (alert.document.doc_id, service.result(0)[0].doc_id)
            ),
            max_pending=16,
        )
        service.ingest(
            [make_document(doc_id, {1: 0.1 * (doc_id + 1)}, arrival_time=float(doc_id))
             for doc_id in range(3)]
        )
        # every event's alert is delivered, each against the final top-1
        assert polled == [(0, 2), (1, 2), (2, 2)]
        assert [alert.document.doc_id for alert in handle.changes()] == [0, 1, 2]

    def test_on_change_callback_and_changes_drain(self):
        service = MonitoringService()
        seen = []
        handle = service.subscribe("market news", k=1, on_change=seen.append, max_pending=64)
        service.ingest(TEXTS)
        assert seen, "callback should have fired"
        assert handle.pending_changes == len(seen)
        drained = list(handle.changes())
        assert [a.change for a in drained] == [a.change for a in seen]
        assert handle.pending_changes == 0
        assert list(handle.changes()) == []

    def test_alert_carries_triggering_document(self):
        service = MonitoringService()
        handle = service.subscribe("market news", k=1)
        service.ingest("breaking news about markets")
        [alert] = list(handle.changes())
        assert alert.document is not None
        assert alert.document.document.text == "breaking news about markets"

    def test_bounded_pending_buffer(self):
        service = MonitoringService()
        handle = service.subscribe(
            ContinuousQuery(0, {1: 1.0}, k=1), max_pending=2
        )
        for doc_id in range(5):
            service.ingest(make_document(doc_id, {1: 0.1 * (doc_id + 1)},
                                         arrival_time=float(doc_id)))
        assert handle.pending_changes == 2

    def test_callback_handles_unbuffered_by_default(self):
        """Callback consumers rarely drain; they keep no buffer unless asked."""
        service = MonitoringService()
        with_callback = service.subscribe(
            ContinuousQuery(0, {1: 1.0}, k=1), on_change=lambda alert: None
        )
        poll_only = service.subscribe(ContinuousQuery(1, {1: 1.0}, k=1))
        assert with_callback._pending is None
        assert poll_only._pending.maxlen is None

    def test_global_on_change_subscriber(self):
        service = MonitoringService()
        service.subscribe("market news", k=1)
        service.subscribe("storm coast", k=1)
        seen = []
        unsubscribe = service.on_change(seen.append)
        service.ingest(TEXTS)
        assert {alert.query_id for alert in seen} == {0, 1}
        unsubscribe()
        count = len(seen)
        service.ingest("markets surge on fresh news")
        assert len(seen) == count


class TestUnsubscribeAndLifecycle:
    def test_unsubscribe_terminates_query(self):
        service = MonitoringService()
        handle = service.subscribe("market news", k=1)
        service.ingest(TEXTS)
        handle.unsubscribe()
        assert not handle.active
        with pytest.raises(UnknownQueryError):
            handle.result()
        with pytest.raises(UnknownQueryError):
            service.result(handle.query_id)
        handle.unsubscribe()  # idempotent

    def test_unsubscribed_handle_gets_no_more_alerts(self):
        service = MonitoringService()
        handle = service.subscribe("market news", k=1)
        handle.unsubscribe()
        service.ingest("breaking news about markets")
        assert handle.pending_changes == 0

    def test_service_unsubscribe_by_id(self):
        service = MonitoringService()
        service.subscribe(ContinuousQuery(3, {1: 1.0}, k=1))
        service.unsubscribe(3)
        assert service.query_ids() == []
        with pytest.raises(UnknownQueryError):
            service.unsubscribe(3)

    def test_context_manager_closes(self):
        with MonitoringService() as service:
            handle = service.subscribe("market news", k=1)
            service.ingest("breaking news about markets")
        assert service.closed
        with pytest.raises(ServiceError):
            service.ingest("too late")
        with pytest.raises(ServiceError):
            service.subscribe("another", k=1)
        # results remain readable after close -- both through the service
        # and through existing handles (including undrained changes)
        assert doc_ids(service.result(handle.query_id)) == [0]
        assert handle.active
        assert doc_ids(handle.result()) == [0]
        assert len(list(handle.changes())) == 1

    def test_close_idempotent(self):
        service = MonitoringService()
        service.close()
        service.close()
        assert service.closed


class TestEngineSelection:
    def test_default_is_ita(self):
        assert isinstance(MonitoringService().engine, ITAEngine)

    def test_legacy_name_accepted(self):
        service = MonitoringService("sharded-ita-3")
        assert isinstance(service.engine, ShardedEngine)
        assert service.engine.num_shards == 3

    def test_prebuilt_engine_accepted(self):
        engine = ITAEngine(CountBasedWindow(5))
        service = MonitoringService(engine)
        assert service.engine is engine
        assert service.spec is None

    def test_engine_without_change_tracking_rejected(self):
        with pytest.raises(ConfigurationError):
            MonitoringService(ITAEngine(CountBasedWindow(5), track_changes=False))
        with pytest.raises(ConfigurationError):
            MonitoringService(EngineSpec(track_changes=False))

    def test_sharded_spec_behaves_like_single_engine(self):
        single = MonitoringService(EngineSpec(window=WindowSpec.count(10)))
        sharded = MonitoringService(
            EngineSpec(kind="sharded", num_shards=3, window=WindowSpec.count(10))
        )
        handles = [service.subscribe("market news", k=2) for service in (single, sharded)]
        for service in (single, sharded):
            service.ingest(TEXTS)
        assert [
            (e.doc_id, round(e.score, 9)) for e in handles[0].result()
        ] == [(e.doc_id, round(e.score, 9)) for e in handles[1].result()]


class TestSnapshotRestore:
    def _populated(self, spec):
        service = MonitoringService(spec)
        service.subscribe("market news", k=2)
        service.subscribe("storm coast", k=1)
        service.ingest(TEXTS)
        return service

    @pytest.mark.parametrize(
        "spec",
        [
            EngineSpec(window=WindowSpec.count(10)),
            EngineSpec(kind="naive", window=WindowSpec.count(10)),
            EngineSpec(
                kind="sharded",
                num_shards=2,
                window=WindowSpec.count(10),
                placement="hash",
            ),
        ],
        ids=["ita", "naive", "sharded"],
    )
    def test_round_trip_preserves_results(self, spec):
        service = self._populated(spec)
        snapshot = json.loads(json.dumps(service.snapshot()))
        restored = MonitoringService.restore(snapshot)
        assert {
            qid: [(e.doc_id, round(e.score, 9)) for e in result]
            for qid, result in restored.results().items()
        } == {
            qid: [(e.doc_id, round(e.score, 9)) for e in result]
            for qid, result in service.results().items()
        }
        assert type(restored.engine) is type(service.engine)
        assert restored.spec == service.spec

    def test_restored_service_keeps_streaming(self):
        service = self._populated(EngineSpec(window=WindowSpec.count(10)))
        restored = MonitoringService.restore(service.snapshot())
        # ids and the clock continue where the original left off
        assert restored.clock == service.clock
        changes = restored.ingest("market news market news")
        assert any(change.query_id == 0 for change in changes)

    def test_restored_vocabulary_keeps_term_ids(self):
        """A query subscribed *after* restore must match restored documents."""
        service = self._populated(EngineSpec(window=WindowSpec.count(10)))
        restored = MonitoringService.restore(service.snapshot())
        late = restored.subscribe("weather tomorrow", k=1)
        assert doc_ids(late.result()) == [1]

    def test_restore_accepts_bare_engine_snapshot(self):
        from repro.persistence import snapshot_engine

        service = self._populated(EngineSpec(window=WindowSpec.count(10)))
        restored = MonitoringService.restore(
            snapshot_engine(service.engine), vocabulary=service.vocabulary
        )
        assert doc_ids(restored.result(0)) == doc_ids(service.result(0))
        # the shared vocabulary keeps term ids stable for late text queries
        late = restored.subscribe("weather tomorrow", k=1)
        assert doc_ids(late.result()) == [1]

    def test_service_snapshot_rejects_extra_vocabulary(self):
        service = self._populated(EngineSpec(window=WindowSpec.count(10)))
        with pytest.raises(ConfigurationError):
            MonitoringService.restore(service.snapshot(), vocabulary=Vocabulary())

    def test_service_snapshot_with_a_repeated_term_is_refused(self):
        """A repeated term would shift every later id: ``gamma`` would get
        1 while the documents use 2, and the next new term 3, ``delta``'s."""
        snapshot = self._populated(EngineSpec(window=WindowSpec.count(10))).snapshot()
        snapshot["vocabulary"] = ["alpha", "alpha", "gamma", "delta"]
        with pytest.raises(ConfigurationError, match="repeats a term"):
            MonitoringService.restore(snapshot)

    def test_restore_accepts_bare_cluster_snapshot(self):
        from repro.persistence import snapshot_engine

        spec = EngineSpec(kind="sharded", num_shards=2, window=WindowSpec.count(10))
        service = self._populated(spec)
        restored = MonitoringService.restore(snapshot_engine(service.engine))
        assert isinstance(restored.engine, ShardedEngine)
        assert doc_ids(restored.result(0)) == doc_ids(service.result(0))

    def test_sharded_restore_preserves_placement(self):
        spec = EngineSpec(
            kind="sharded", num_shards=3, window=WindowSpec.count(10)
        )
        service = self._populated(spec)
        restored = MonitoringService.restore(service.snapshot())
        assert restored.engine.assignment() == service.engine.assignment()

    def test_handle_reattaches_after_restore(self):
        service = self._populated(EngineSpec(window=WindowSpec.count(10)))
        restored = MonitoringService.restore(service.snapshot())
        seen = []
        handle = restored.handle(0, on_change=seen.append)
        assert handle is restored.handle(0)
        restored.ingest("markets rally again on big news")
        assert seen and seen[0].query_id == 0

    def test_handle_rejects_replacing_existing_callback(self):
        service = MonitoringService()
        service.subscribe("market news", k=1, on_change=lambda alert: None)
        with pytest.raises(ConfigurationError):
            service.handle(0, on_change=lambda alert: None)
        with pytest.raises(ConfigurationError):
            service.handle(0, max_pending=5)

    def test_sharded_restore_keeps_cost_calibration(self):
        """The calibrated cost model must survive a service round-trip."""
        from repro.cluster.placement import CostModelPlacement
        from repro.service import PlacementCalibration

        spec = EngineSpec(
            kind="sharded",
            num_shards=2,
            window=WindowSpec.count(10),
            calibration=PlacementCalibration(dictionary_size=777, window_size=10),
        )
        service = self._populated(spec)
        restored = MonitoringService.restore(service.snapshot())
        placement = restored.engine.placement
        assert isinstance(placement, CostModelPlacement)
        assert placement.dictionary_size == 777
        assert placement.window_size == 10

    def test_unsupported_version_rejected(self):
        service = self._populated(EngineSpec(window=WindowSpec.count(10)))
        snapshot = service.snapshot()
        snapshot["version"] = 99
        with pytest.raises(ConfigurationError):
            MonitoringService.restore(snapshot)


class TestTimeBasedService:
    def test_advance_time_dispatches_expiry_alerts(self):
        service = MonitoringService(EngineSpec(window=WindowSpec.time(10.0)))
        handle = service.subscribe(ContinuousQuery(0, {1: 1.0}, k=1))
        service.ingest(make_document(0, {1: 0.9}, arrival_time=1.0))
        assert doc_ids(handle.result()) == [0]
        list(handle.changes())
        changes = service.advance_time(20.0)
        assert changes and changes[0].left
        [alert] = list(handle.changes())
        assert alert.document is None
        assert handle.result() == []


class TestRefusedIngest:
    """A refused ingest changes nothing: not the engine, the id counter or the clock."""

    @staticmethod
    def huge_document():
        return Document(doc_id=2**63, composition=CompositionList({0: 1.0}))

    @staticmethod
    def stamps(service):
        return service._next_doc_id, service.clock

    @pytest.mark.parametrize("storage", ["columnar", "bisect"])
    def test_an_id_outside_int64_is_refused_before_anything_changes(self, storage):
        service = MonitoringService(EngineSpec(window=WindowSpec.count(3), storage=storage))
        service.ingest("markets rally now")
        handle = service.subscribe("markets", k=2)
        before, window = self.stamps(service), list(service.window)
        with pytest.raises(DocumentError, match="int64"):
            service.ingest(self.huge_document())
        assert self.stamps(service) == before
        assert list(service.window) == window
        service.ingest("markets again")
        service.ingest("other words")
        assert doc_ids(handle.result()) == [1, 0]
        service.engine.index.check_invariants()

    def test_a_durable_service_refuses_it_and_keeps_ingesting(self, tmp_path):
        service = MonitoringService.open(tmp_path, EngineSpec(window=WindowSpec.count(3)))
        service.ingest("markets rally now")
        handle = service.subscribe("markets", k=2)
        before = self.stamps(service)
        with pytest.raises(DocumentError, match="int64"):
            service.ingest(self.huge_document())
        assert self.stamps(service) == before
        service.ingest("markets again")
        assert doc_ids(handle.result()) == [1, 0]
        results = service.results()
        service.close()
        with MonitoringService.open(tmp_path) as recovered:
            assert recovered.results() == results
            assert self.stamps(recovered) == (2, 2.0)

    @pytest.mark.parametrize(
        "source, error",
        [(["markets up", 5], ConfigurationError), (["markets up", Document(2**63, CompositionList({0: 1.0}))], DocumentError)],
        ids=["not-ingestible", "outside-int64"],
    )
    def test_a_refused_list_gives_back_its_ids_and_times(self, source, error):
        service = MonitoringService(EngineSpec(window=WindowSpec.count(3)))
        service.ingest("markets rally now", at=5.0)
        before = self.stamps(service)
        with pytest.raises(error):
            service.ingest(source)
        assert self.stamps(service) == before == (1, 5.0)
        service.ingest("markets up")
        assert [streamed.doc_id for streamed in service.window] == [0, 1]
        assert service.clock == 6.0

    def test_the_async_facade_refuses_it_and_keeps_ingesting(self, tmp_path):
        import asyncio

        service = MonitoringService.open(tmp_path, EngineSpec(window=WindowSpec.count(3)))

        async def scenario():
            async with service.serve() as facade:
                await facade.ingest("markets rally now")
                handle = await facade.subscribe("markets", k=2)
                with pytest.raises(DocumentError, match="int64"):
                    await facade.ingest(self.huge_document())
                assert self.stamps(service) == (1, 1.0)
                await facade.ingest("markets again")
                return handle.result()

        assert doc_ids(asyncio.run(scenario())) == [1, 0]
        service.close()
