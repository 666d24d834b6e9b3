"""Delivery costs what is consumed.

* A callback subscription without ``max_pending`` keeps no change buffer:
  the dispatcher calls its callback directly (``QueryHandle._deliver`` is
  on the path of buffered handles only), so no ``Alert`` outlives the
  ``ingest()`` call that built it unless the callback keeps it.
* A handle with neither a callback nor a buffer subscribes nothing.
* ``max_pending`` is checked before anything is registered or logged, on
  every service kind and through the serving tier.
"""

from __future__ import annotations

import gc
import random
import threading

import pytest

from repro.alerting import Alert
from repro.exceptions import ConfigurationError
from repro.net.client import RemoteMonitoringClient
from repro.net.server import MonitoringServer
from repro.query.query import ContinuousQuery
from repro.queryscale import QueryScaleOptions
from repro.service import EngineSpec, MonitoringService, WindowSpec
from repro.service.service import QueryHandle
from tests.conftest import make_document

NUM_TERMS = 12


def random_documents(seed, count, first_id=0):
    rng = random.Random(seed)
    documents = []
    for doc_id in range(first_id, first_id + count):
        terms = rng.sample(range(NUM_TERMS), rng.randint(1, 4))
        weights = {term: rng.uniform(0.05, 1.0) for term in terms}
        documents.append(make_document(doc_id, weights, arrival_time=float(doc_id)))
    return documents


def random_queries(seed, count, fanout=1):
    """``count`` queries over ``count // fanout`` distinct weight sets."""
    rng = random.Random(seed)
    queries = []
    for query_id in range(count):
        if query_id % fanout == 0:
            terms = rng.sample(range(NUM_TERMS), rng.randint(1, 3))
            weights = {term: rng.uniform(0.05, 1.0) for term in terms}
        queries.append(ContinuousQuery(query_id=query_id, weights=dict(weights), k=2))
    return queries


def subscriber_count(service):
    dispatcher = service.dispatcher
    scoped = sum(len(callbacks) for callbacks in dispatcher._query_subscribers.values())
    return scoped + len(dispatcher._global_subscribers)


SPECS = {
    "plain": EngineSpec(window=WindowSpec.count(16)),
    "dedup": EngineSpec(window=WindowSpec.count(16), queryscale=QueryScaleOptions()),
}


# --------------------------------------------------------------------------- #
# no buffer unless asked
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", sorted(SPECS))
def test_alerts_die_young(kind):
    received = []
    documents = random_documents(3, 200)
    ours = {id(document) for document in documents}
    with MonitoringService(SPECS[kind]) as service:
        for query in random_queries(4, 20, fanout=2):
            service.subscribe(query, on_change=lambda alert: received.append(alert.query_id))
        for document in documents:
            service.ingest(document)
        gc.collect()
        survivors = [
            obj for obj in gc.get_objects() if type(obj) is Alert and id(obj.document) in ours
        ]
    assert len(received) > 100
    assert survivors == []


def test_a_callback_handle_is_off_the_delivery_path(monkeypatch):
    spied = []
    original = QueryHandle._deliver

    def spy(self, alert):
        spied.append(self.query_id)
        original(self, alert)

    monkeypatch.setattr(QueryHandle, "_deliver", spy)
    direct, buffered = [], []
    with MonitoringService() as service:
        unbuffered = service.subscribe(ContinuousQuery(0, {1: 1.0}, k=1), on_change=direct.append)
        bounded = service.subscribe(
            ContinuousQuery(1, {1: 1.0}, k=1), on_change=buffered.append, max_pending=4
        )
        for doc_id in range(8):
            service.ingest(make_document(doc_id, {1: 0.1 * (doc_id + 1)}, arrival_time=float(doc_id)))
        assert service.dispatcher.delivered == 16
    assert [alert.change for alert in direct] == [alert.change._replace(query_id=0) for alert in buffered]
    assert spied == [bounded.query_id] * 8
    assert unbuffered.pending_changes == 0 and bounded.pending_changes == 4


def test_a_handle_with_no_callback_and_no_buffer_subscribes_nothing():
    with MonitoringService() as service:
        before = subscriber_count(service)
        handle = service.subscribe(ContinuousQuery(0, {1: 1.0}, k=1), max_pending=0)
        assert subscriber_count(service) == before
        service.ingest(make_document(0, {1: 0.5}, arrival_time=0.0))
        assert [entry.doc_id for entry in handle.result()] == [0]
        assert handle.pending_changes == 0 and list(handle.changes()) == []
        handle.unsubscribe()
        assert service.query_ids() == []


def test_max_pending_zero_with_a_callback_keeps_no_buffer():
    seen = []
    with MonitoringService() as service:
        handle = service.subscribe(ContinuousQuery(0, {1: 1.0}, k=1), on_change=seen.append, max_pending=0)
        service.ingest(make_document(0, {1: 0.5}, arrival_time=0.0))
        assert len(seen) == 1 and handle.pending_changes == 0


def test_a_shared_callback_survives_one_handle_unsubscribing_inside_it():
    """Direct delivery keeps the copy-on-write lists' guarantee: the handle
    that unsubscribes mid-delivery stops, its neighbour misses nothing."""
    seen = []
    with MonitoringService() as service:

        def callback(alert):
            seen.append(alert.query_id)
            if alert.query_id == 0:
                first.unsubscribe()

        first = service.subscribe(ContinuousQuery(0, {1: 1.0}, k=1), on_change=callback)
        service.subscribe(ContinuousQuery(1, {1: 1.0}, k=1), on_change=callback)
        for doc_id in range(3):
            service.ingest(make_document(doc_id, {1: 0.1 * (doc_id + 1)}, arrival_time=float(doc_id)))
    assert seen == [0, 1, 1, 1]
    assert not first.active


# --------------------------------------------------------------------------- #
# max_pending is checked first
# --------------------------------------------------------------------------- #
BAD_BOUNDS = [-1, True, 2.0, "4"]


def open_service(kind, path):
    if kind == "durable":
        return MonitoringService.open(path, EngineSpec(window=WindowSpec.count(16)))
    return MonitoringService(SPECS[kind])


@pytest.mark.parametrize("bound", BAD_BOUNDS, ids=repr)
@pytest.mark.parametrize("kind", ["plain", "dedup", "durable"])
def test_a_bad_bound_registers_and_logs_nothing(kind, bound, tmp_path):
    service = open_service(kind, tmp_path)
    try:
        service.subscribe(ContinuousQuery(0, {1: 1.0, 2: 0.5}, k=2))
        service.ingest(random_documents(5, 10))
        engine_ids, subscriber_ids = service.engine.query_ids(), service.query_ids()
        lsn = service.durability.last_lsn if kind == "durable" else None
        subscribers = subscriber_count(service)

        with pytest.raises(ConfigurationError, match="max_pending"):
            service.subscribe(ContinuousQuery(1, {2: 1.0}, k=2), max_pending=bound)
        with pytest.raises(ConfigurationError, match="max_pending"):
            service.subscribe("market news", on_change=lambda alert: None, max_pending=bound)

        assert service.engine.query_ids() == engine_ids
        assert service.query_ids() == subscriber_ids
        assert subscriber_count(service) == subscribers
        results = service.results()
        if kind == "durable":
            assert service.durability.last_lsn == lsn
    finally:
        service.close()
    if kind == "durable":
        reopened = MonitoringService.open(tmp_path)
        try:
            assert reopened.results() == results
        finally:
            reopened.close()


@pytest.mark.parametrize("bound", BAD_BOUNDS, ids=repr)
def test_handle_checks_the_bound_before_attaching(bound):
    with MonitoringService() as service:
        service.engine.register_query(ContinuousQuery(5, {1: 1.0}, k=1))
        with pytest.raises(ConfigurationError, match="max_pending"):
            service.handle(5, max_pending=bound)
        assert subscriber_count(service) == 0
        assert service.handle(5).query_id == 5


@pytest.mark.parametrize("bound", [-1, 1.5, "3", True])
def test_the_server_passes_a_bad_bound_to_the_check(bound):
    service = MonitoringService(EngineSpec(kind="ita", window=WindowSpec.count(16)))
    server = MonitoringServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with RemoteMonitoringClient(*server.address, timeout_ms=10_000.0) as client:
            with pytest.raises(ConfigurationError, match="max_pending"):
                client.subscribe("market news", max_pending=bound)
            assert client.query_ids() == []
            assert subscriber_count(service) == 0
            assert client.subscribe("market news", max_pending=0).query_id == 0
    finally:
        server.shutdown()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
