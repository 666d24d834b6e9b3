"""The serving tier: MonitoringServer + RemoteMonitoringClient round trips."""

from __future__ import annotations

import socket
import struct
import threading
from typing import Iterator, Tuple

import pytest

from repro.exceptions import (
    ConfigurationError,
    DuplicateQueryError,
    NetworkError,
    UnknownQueryError,
)
from repro.net.client import RemoteMonitoringClient
from repro.net.protocol import encode_frame, raise_remote_error, recv_frame, send_frame
from repro.net.server import MonitoringServer
from repro.query.query import ContinuousQuery
from repro.service import EngineSpec, MonitoringService, WindowSpec
from tests.conftest import StreamCase


@pytest.fixture
def served() -> Iterator[Tuple[RemoteMonitoringClient, MonitoringService]]:
    """A served ITA service and a connected client; everything torn down."""
    service = MonitoringService(
        EngineSpec(kind="ita", window=WindowSpec.count(32))
    )
    server = MonitoringServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.address
    client = RemoteMonitoringClient(host, port, timeout_ms=10_000.0)
    try:
        yield client, service
    finally:
        client.close()
        server.shutdown()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert service.closed  # the drain path closes the service


def test_remote_facade_matches_local_service(served):
    client, _ = served
    local = MonitoringService(EngineSpec(kind="ita", window=WindowSpec.count(32)))
    remote_handle = client.subscribe("market news", k=2)
    local_handle = local.subscribe("market news", k=2)
    assert remote_handle.active
    texts = [
        f"market news bulletin {i}: stocks, trade and markets" for i in range(6)
    ] + ["weather report: sunny", "sports results round-up"]
    for text in texts:
        remote_changes = client.ingest(text)
        local_changes = local.ingest(text)
        assert remote_changes == local_changes
    assert remote_handle.result() == local_handle.result()
    assert client.results() == local.results()
    remote_alerts = list(remote_handle.changes())
    local_alerts = list(local_handle.changes())
    assert [a.change for a in remote_alerts] == [a.change for a in local_alerts]
    assert [
        a.document.doc_id if a.document else None for a in remote_alerts
    ] == [a.document.doc_id if a.document else None for a in local_alerts]
    assert remote_handle.pending_changes == 0
    local.close()


def test_prebuilt_queries_and_streamed_documents(served):
    client, _ = served
    case = StreamCase(21, num_queries=3, num_documents=30)
    handles = [client.subscribe(query) for query in case.queries]
    assert [handle.query_id for handle in handles] == [
        query.query_id for query in case.queries
    ]
    client.ingest(case.documents)

    from repro.core.engine import ITAEngine

    reference = ITAEngine(WindowSpec.count(32).build(), track_changes=True)
    for query in case.queries:
        reference.register_query(query)
    for document in case.documents:
        reference.process(document)
    for query in case.queries:
        assert handles[0].result() == reference.current_result(handles[0].query_id)
        assert client.result(query.query_id) == reference.current_result(
            query.query_id
        )


def test_typed_errors_cross_the_wire(served):
    client, _ = served
    with pytest.raises(UnknownQueryError):
        client.result(404)
    with pytest.raises(UnknownQueryError):
        client.unsubscribe(404)
    client.ingest("tick", at=10.0)
    with pytest.raises(ConfigurationError):
        client.ingest("tock", at=1.0)  # behind the service clock
    with pytest.raises(NetworkError, match="unknown server method"):
        client._call("no_such_method")
    # The connection survives typed errors: normal calls keep working.
    assert client.ping()["engine"] == "ita"


def test_unsubscribe_and_handle_reattach(served):
    client, _ = served
    handle = client.subscribe("alpha beta", k=1)
    query_id = handle.query_id
    assert client.query_ids() == [query_id]
    reattached = client.handle(query_id)
    assert reattached is handle
    handle.unsubscribe()
    assert not handle.active
    handle.unsubscribe()  # idempotent
    assert client.query_ids() == []
    with pytest.raises(UnknownQueryError):
        handle.result()
    with pytest.raises(UnknownQueryError):
        client.handle(query_id)


def test_advance_time_and_clock(served):
    client, _ = served
    handle = client.subscribe("fleeting story", k=2)
    client.ingest("a fleeting story", at=5.0)
    assert client.ping()["clock"] == 5.0
    changes = client.advance_time(50.0)
    assert changes == []  # count-based window: nothing expires
    assert handle.result()  # still there
    assert client.ping()["clock"] == 50.0  # the clock advanced


def test_snapshot_metrics_and_stats(served):
    client, service = served
    client.subscribe("snapshot test", k=1)
    client.ingest("a snapshot test document")
    snapshot = client.snapshot()
    assert snapshot == service.snapshot()
    restored = MonitoringService.restore(snapshot)
    assert restored.results() == service.results()
    restored.close()
    stats = client.stats()
    assert stats["engine"] == "ita"
    assert stats["window_size"] == 1
    assert "worker_pids" not in stats  # single engine: no workers
    assert isinstance(client.metrics(), dict)
    assert isinstance(client.metrics_prometheus(), str)


def test_two_clients_share_the_server(served):
    client, _ = served
    host, port = client._connection.peer.rsplit(":", 1)
    with RemoteMonitoringClient(host, int(port)) as second:
        handle = client.subscribe("shared topic", k=1)
        second.ingest("a shared topic document")
        assert client.result(handle.query_id) == second.result(handle.query_id)
        # The second client can attach to the first one's subscription.
        other = second.handle(handle.query_id)
        assert other.result() == handle.result()


def test_shutdown_rpc_stops_the_server():
    service = MonitoringService(EngineSpec(kind="ita", window=WindowSpec.count(8)))
    server = MonitoringServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.address
    with RemoteMonitoringClient(host, port) as client:
        client.subscribe("graceful stop", k=1)
        client.ingest("one last document before the graceful stop")
        client.shutdown_server()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert service.closed
    # The drained service still serves reads, per the facade contract.
    assert list(service.results())


def test_invalid_server_construction():
    service = MonitoringService(EngineSpec(kind="ita", window=WindowSpec.count(8)))
    with pytest.raises(ConfigurationError, match="max_pending"):
        MonitoringServer(service, max_pending=0)
    service.close()


def test_remote_max_pending_bounds_the_server_buffer(served):
    client, service = served
    handle = client.subscribe("bounded buffer news", k=5, max_pending=2)
    for i in range(6):
        client.ingest(f"bounded buffer news item {i}")
    # The server kept only the newest two alerts for this handle.
    assert service.handle(handle.query_id).pending_changes <= 2
    assert len(list(handle.changes())) <= 2


def test_subscribe_with_query_record_conflict(served):
    client, _ = served
    query = ContinuousQuery(query_id=7, weights={0: 1.0}, k=1)
    client.subscribe(query)
    with pytest.raises(DuplicateQueryError):
        client.subscribe(ContinuousQuery(query_id=7, weights={1: 1.0}, k=1))


def test_the_serving_tier_keeps_its_json_and_refuses_attachments():
    """A hand-written JSON body with newlines and leading whitespace is
    served as before; a tagged binary frame gets a typed error, and the
    connection keeps answering."""
    service = MonitoringService(EngineSpec(kind="ita", window=WindowSpec.count(8)))
    server = MonitoringServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(server.address, timeout=10.0) as sock:
            body = b'\n  \t{\n  "id": 1,\n  "method": "ping",\n  "params": {}\n}\n'
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = recv_frame(sock)
            assert response["id"] == 1 and response["ok"]
            assert response["result"]["engine"] == service.engine.name

            sock.sendall(encode_frame({"id": 2, "method": "ping", "params": {}}, b"\x00\x01\x02"))
            response = recv_frame(sock)
            assert response["id"] == 2 and not response["ok"]
            with pytest.raises(NetworkError, match="attachment"):
                raise_remote_error(response["error"])

            send_frame(sock, {"id": 3, "method": "ping", "params": {}})
            response = recv_frame(sock)
            assert response["id"] == 3 and response["ok"]
    finally:
        server.shutdown()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
