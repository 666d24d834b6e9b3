"""Tests for the result-change subscription layer."""

import pytest

from repro.alerting import Alert, AlertDispatcher
from repro.core.engine import ITAEngine
from repro.documents.window import CountBasedWindow, TimeBasedWindow
from repro.service import MonitoringService
from tests.conftest import make_document, make_query


def build_dispatcher(window=None):
    engine = ITAEngine(window if window is not None else CountBasedWindow(3))
    engine.register_query(make_query(0, {1: 1.0}, k=1))
    engine.register_query(make_query(1, {2: 1.0}, k=1))
    return AlertDispatcher(engine), engine


class TestSubscription:
    def test_requires_change_tracking(self):
        engine = ITAEngine(CountBasedWindow(3), track_changes=False)
        with pytest.raises(ValueError):
            AlertDispatcher(engine)

    def test_global_subscriber_receives_all_changes(self):
        dispatcher, _ = build_dispatcher()
        seen = []
        dispatcher.subscribe(seen.append)
        dispatcher.process(make_document(0, {1: 0.9}, arrival_time=0.0))
        dispatcher.process(make_document(1, {2: 0.8}, arrival_time=1.0))
        assert [alert.query_id for alert in seen] == [0, 1]

    def test_scoped_subscriber_only_its_query(self):
        dispatcher, _ = build_dispatcher()
        seen = []
        dispatcher.subscribe(seen.append, query_id=1)
        dispatcher.process(make_document(0, {1: 0.9}, arrival_time=0.0))  # query 0 only
        assert seen == []
        dispatcher.process(make_document(1, {2: 0.8}, arrival_time=1.0))  # query 1
        assert [alert.query_id for alert in seen] == [1]

    def test_unsubscribe_stops_delivery(self):
        dispatcher, _ = build_dispatcher()
        seen = []
        unsubscribe = dispatcher.subscribe(seen.append)
        dispatcher.process(make_document(0, {1: 0.9}, arrival_time=0.0))
        unsubscribe()
        dispatcher.process(make_document(1, {2: 0.8}, arrival_time=1.0))
        assert len(seen) == 1

    def test_unsubscribe_scoped(self):
        dispatcher, _ = build_dispatcher()
        seen = []
        unsubscribe = dispatcher.subscribe(seen.append, query_id=0)
        unsubscribe()
        dispatcher.process(make_document(0, {1: 0.9}, arrival_time=0.0))
        assert seen == []

    def test_delivered_counter(self):
        dispatcher, _ = build_dispatcher()
        dispatcher.subscribe(lambda alert: None)
        dispatcher.subscribe(lambda alert: None, query_id=0)
        dispatcher.process(make_document(0, {1: 0.9}, arrival_time=0.0))
        # one global + one scoped to query 0
        assert dispatcher.delivered == 2


class TestSubscriberTablesAreCopyOnWrite:
    """Subscribe and unsubscribe rebind a new list; a delivery in progress
    keeps iterating the one it fetched."""

    @pytest.mark.parametrize("query_id", [None, 0], ids=["global", "scoped"])
    def test_unsubscribing_inside_the_callback_costs_the_neighbour_nothing(self, query_id):
        dispatcher, _ = build_dispatcher()
        seen = []

        def once(alert):
            seen.append("once")
            stop()

        stop = dispatcher.subscribe(once, query_id=query_id)
        dispatcher.subscribe(lambda alert: seen.append("always"), query_id=query_id)
        dispatcher.process(make_document(0, {1: 0.5}, arrival_time=0.0))
        assert seen == ["once", "always"]
        dispatcher.process(make_document(1, {1: 0.9}, arrival_time=1.0))
        assert seen == ["once", "always", "always"]
        assert dispatcher.delivered == 3

    def test_the_facades_observers(self):
        seen = []

        def once(alert):
            seen.append("once")
            stop()

        with MonitoringService() as service:
            service.subscribe("market news", k=1)
            stop = service.on_change(once)
            service.on_change(lambda alert: seen.append("always"))
            service.ingest("breaking news about markets")
        assert seen == ["once", "always"]

    def test_a_retired_query_id_leaves_no_key(self):
        with MonitoringService() as service:
            for _ in range(500):
                service.subscribe("market news", k=2).unsubscribe()
            assert service.dispatcher._query_subscribers == {}
            seen = []
            handle = service.subscribe("market news", k=2, on_change=seen.append)
            service.ingest("breaking news about markets")
            assert [alert.query_id for alert in seen] == [handle.query_id]
            assert list(service.dispatcher._query_subscribers) == [handle.query_id]


class TestAlertContent:
    def test_alert_carries_change_and_document(self):
        dispatcher, _ = build_dispatcher()
        seen = []
        dispatcher.subscribe(seen.append)
        document = make_document(0, {1: 0.9}, arrival_time=5.0)
        dispatcher.process(document)
        alert = seen[0]
        assert isinstance(alert, Alert)
        assert alert.document.doc_id == 0
        assert [e.doc_id for e in alert.change.entered] == [0]

    def test_displacement_reported_in_alert(self):
        dispatcher, _ = build_dispatcher()
        seen = []
        dispatcher.subscribe(seen.append, query_id=0)
        dispatcher.process(make_document(0, {1: 0.5}, arrival_time=0.0))
        dispatcher.process(make_document(1, {1: 0.9}, arrival_time=1.0))
        last = seen[-1]
        assert [e.doc_id for e in last.change.entered] == [1]
        assert [e.doc_id for e in last.change.left] == [0]


class TestEventForwarding:
    def test_process_many(self):
        dispatcher, engine = build_dispatcher()
        seen = []
        dispatcher.subscribe(seen.append)
        documents = [make_document(i, {1: 0.1 + 0.1 * i}, arrival_time=float(i)) for i in range(3)]
        dispatcher.process_many(documents)
        assert len(seen) >= 1
        assert engine.counters.arrivals == 3

    def test_advance_time_dispatches_expiry_alerts(self):
        dispatcher, engine = build_dispatcher(window=TimeBasedWindow(span=5.0))
        seen = []
        dispatcher.subscribe(seen.append)
        dispatcher.process(make_document(0, {1: 0.9}, arrival_time=0.0))
        seen.clear()
        dispatcher.advance_time(10.0)  # document 0 expires -> query 0 result empties
        assert any(alert.query_id == 0 for alert in seen)

    def test_no_alert_when_result_unchanged(self):
        dispatcher, _ = build_dispatcher()
        seen = []
        dispatcher.subscribe(seen.append)
        dispatcher.process(make_document(0, {1: 0.9}, arrival_time=0.0))
        seen.clear()
        # A document sharing no terms with any query changes nothing.
        dispatcher.process(make_document(1, {99: 0.9}, arrival_time=1.0))
        assert seen == []
