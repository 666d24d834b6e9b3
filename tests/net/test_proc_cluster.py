"""ProcessClusterEngine: equivalence, supervision, and durability."""

from __future__ import annotations

import os
import signal
import time
from dataclasses import replace

import pytest

from repro.cluster.engine import ShardedEngine
from repro.core.engine import ITAEngine
from repro.documents.document import Document, StreamedDocument
from repro.exceptions import (
    ConfigurationError,
    DocumentError,
    DuplicateQueryError,
    QueryError,
    RpcTransportError,
    UnknownQueryError,
    WindowError,
    WorkerCrashError,
)
from repro.net.cluster import ProcessClusterEngine
from repro.net.codec import encode_documents
from repro.net.options import ProcOptions
from repro.net.protocol import RpcConnection
from repro.net.remote import MAX_UNREAD
from repro.net.worker import ShardWorker
from repro.observability import runtime
from repro.persistence import replay, restore_into, snapshot_engine
from repro.service import EngineSpec, MonitoringService, WindowSpec
from tests.conftest import StreamCase, TieFreeCase, make_document, make_query

WINDOW = 32
FAST = ProcOptions(request_timeout_ms=30_000.0, backoff_ms=5.0)


def make_cluster(num_workers=2, placement="hash", options=FAST, window=WINDOW):
    if not isinstance(window, WindowSpec):
        window = WindowSpec.count(window)
    return ProcessClusterEngine(
        num_workers=num_workers,
        window_spec=window,
        placement=placement,
        options=options,
    )


def make_reference(window=WindowSpec.count(WINDOW)):
    return ShardedEngine(
        num_shards=2,
        shard_factory=lambda: ITAEngine(window.build(), track_changes=True),
        placement="hash",
    )


def digest(engine):
    return {
        query_id: [(entry.doc_id, entry.score) for entry in result]
        for query_id, result in engine.current_results().items()
    }


def lose_next_ack(cluster, shard):
    """Make ``shard``'s next response read SIGKILL its worker *after* the
    worker applied the request and answered, then fail as a torn
    connection would: the coordinator never learns the call succeeded."""
    connection = cluster.shards[shard].connection
    read_response = connection.read_response
    pid = cluster.worker_pids()[shard]

    def lost(request_id, deadline=None):
        read_response(request_id, deadline)
        os.kill(pid, signal.SIGKILL)
        raise RpcTransportError("the ack was lost")

    connection.read_response = lost


def normalize(changes):
    return [
        (
            change.query_id,
            tuple((entry.doc_id, entry.score) for entry in change.entered),
            tuple((entry.doc_id, entry.score) for entry in change.left),
        )
        for change in changes
    ]


@pytest.mark.parametrize("seed", [401, 702])
def test_bit_identical_to_in_process_sharded_cluster(seed):
    case = StreamCase(seed, num_queries=6, num_documents=90)
    reference = ShardedEngine(
        num_shards=2,
        shard_factory=lambda: ITAEngine(WindowSpec.count(WINDOW).build(), track_changes=True),
        placement="hash",
    )
    with make_cluster() as cluster:
        for query in case.queries:
            reference.register_query(query)
            cluster.register_query(query)
        for document in case.documents:
            expected = reference.process(document)
            actual = cluster.process(document)
            assert normalize(actual) == normalize(expected)
        assert {
            qid: [(e.doc_id, e.score) for e in result]
            for qid, result in cluster.current_results().items()
        } == {
            qid: [(e.doc_id, e.score) for e in result]
            for qid, result in reference.current_results().items()
        }
        # The counters travel over RPC but must sum to the same work.
        assert cluster.counters.as_dict() == reference.counters.as_dict()
        cluster.check_invariants()


def test_batched_ingest_matches_per_document_changes():
    case = StreamCase(17, num_queries=5, num_documents=60)
    with make_cluster() as batched, make_cluster() as single:
        for query in case.queries:
            batched.register_query(query)
            single.register_query(query)
        per_event = batched.process_batch_events(case.documents)
        one_by_one = [single.process(document) for document in case.documents]
        assert [normalize(event) for event in per_event] == [
            normalize(event) for event in one_by_one
        ]


def test_sigkill_mid_stream_recovers_from_coordinator_bit_identically():
    case = StreamCase(88, num_queries=6, num_documents=80)
    reference = ShardedEngine(
        num_shards=2,
        shard_factory=lambda: ITAEngine(WindowSpec.count(WINDOW).build(), track_changes=True),
        placement="hash",
    )
    with make_cluster() as cluster:
        for query in case.queries:
            reference.register_query(query)
            cluster.register_query(query)
        for index, document in enumerate(case.documents):
            if index == 40:
                victim = cluster.worker_pids()[0]
                os.kill(victim, signal.SIGKILL)
                time.sleep(0.1)  # let the kernel tear the socket down
            expected = reference.process(document)
            actual = cluster.process(document)
            assert normalize(actual) == normalize(expected), f"diverged at doc {index}"
        assert cluster.restart_counts() == [1, 0]
        assert cluster.total_restarts == 1
        assert cluster.worker_pids()[0] != victim
        cluster.check_invariants()


def test_restart_budget_exhaustion_raises_worker_crash():
    options = ProcOptions(max_restarts=0, backoff_ms=1.0, request_timeout_ms=5_000.0)
    cluster = make_cluster(options=options)
    try:
        cluster.register_query(StreamCase(3, num_documents=1).queries[0])
        os.kill(cluster.worker_pids()[0], signal.SIGKILL)
        with pytest.raises(WorkerCrashError):
            for document in StreamCase(3, num_documents=20).documents:
                cluster.process(document)
    finally:
        cluster.close()


def test_typed_errors_cross_the_process_boundary():
    case = StreamCase(5, num_queries=2, num_documents=4)
    with make_cluster() as cluster:
        cluster.register_query(case.queries[0])
        with pytest.raises(DuplicateQueryError):
            cluster.register_query(case.queries[0])
        with pytest.raises(UnknownQueryError):
            cluster.current_result(999)
        with pytest.raises(UnknownQueryError):
            cluster.unregister_query(999)
        # A rejected op must not poison the workers: valid work continues.
        for document in case.documents:
            cluster.process(document)
        cluster.check_invariants()


def test_invalid_construction():
    with pytest.raises(ConfigurationError, match="at least one worker"):
        ProcessClusterEngine(num_workers=0)


def test_close_is_idempotent_and_reaps_workers():
    cluster = make_cluster()
    pids = cluster.worker_pids()
    cluster.close()
    cluster.close()
    for pid in pids:
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        else:
            pytest.fail(f"worker {pid} outlived close()")


def test_service_snapshot_restores_into_a_fresh_proc_cluster():
    spec = EngineSpec(
        kind="sharded-proc",
        num_shards=2,
        window=WindowSpec.count(WINDOW),
        placement="hash",
        proc=FAST,
    )
    case = StreamCase(64, num_queries=4, num_documents=40)
    service = MonitoringService(spec)
    try:
        handles = {q.query_id: service.subscribe(q) for q in case.queries}
        service.ingest(case.documents[:30])
        snapshot = service.snapshot()
        expected = service.results()
        service.close()

        restored = MonitoringService.restore(snapshot)
        try:
            assert restored.results() == expected
            # The restored cluster keeps working: replay the tail through it.
            restored.ingest(case.documents[30:])
            restored_handles = {qid: restored.handle(qid) for qid in handles}
            reference = MonitoringService(
                EngineSpec(kind="ita", window=WindowSpec.count(WINDOW))
            )
            for query in case.queries:
                reference.subscribe(query)
            reference.ingest(case.documents)
            assert restored.results() == reference.results()
            assert all(handle.active for handle in restored_handles.values())
            reference.close()
        finally:
            restored.close()
    finally:
        service.close()


def test_a_replay_through_the_cluster_installs_each_recorded_state_on_its_worker():
    """``replay`` on a proc cluster hands each worker its queries' recorded
    states (the ``install_query`` RPC): the states come back as recorded
    and no worker runs a descent."""
    case = StreamCase(64, num_queries=4, num_documents=40)
    reference = make_reference()
    for query in case.queries:
        reference.register_query(query)
    reference.process_batch_events(case.documents)
    states = reference.query_states()
    cluster = make_cluster()
    try:
        replay(cluster, list(reference.window), reference.window.clock, case.queries, states)
        assert cluster.query_states() == states
        assert cluster.assignment() == reference.assignment()
        assert cluster.counters.postings_scanned == cluster.counters.scores_computed == 0
        cluster.check_invariants()
    finally:
        cluster.close()


def test_batch_rejected_part_way_keeps_its_prefix_like_ita():
    """A stale arrival mid-batch: the workers keep the accepted prefix,
    exactly as one engine does, instead of lagging the mirror."""
    single = ITAEngine(WindowSpec.count(WINDOW).build(), track_changes=True)
    with make_cluster() as cluster:
        for engine in (single, cluster):
            engine.register_query(make_query(0, {1: 1.0}, k=2))
            engine.process_batch_events([make_document(0, {1: 0.2}, arrival_time=1.0)])
            with pytest.raises(WindowError):
                engine.process_batch_events(
                    [
                        make_document(1, {1: 0.5}, arrival_time=5.0),
                        make_document(2, {1: 0.9}, arrival_time=3.0),
                    ]
                )
        ids = [streamed.document.doc_id for streamed in single.window]
        assert ids == [0, 1]
        assert [streamed.document.doc_id for streamed in cluster.window] == ids
        assert digest(cluster) == digest(single)
        cluster.check_invariants()


@pytest.mark.parametrize("op", ["ingest", "advance_time", "subscribe", "unsubscribe"])
def test_an_operation_whose_ack_is_lost_is_applied_exactly_once(op):
    """The worker applies the call, answers, and dies before the answer is
    read: the replacement is seeded with the state *before* the call and
    the call is re-sent, so it takes effect once."""
    case = TieFreeCase(31, num_queries=6, num_documents=70)
    window = WindowSpec.time(6.0) if op == "advance_time" else WindowSpec.count(WINDOW)
    reference = make_reference(window)
    late = case.queries[-1]
    with make_cluster(window=window) as cluster:
        for query in case.queries[:-1]:
            reference.register_query(query)
            cluster.register_query(query)
        for document in case.documents[:40]:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        rest = case.documents[40:]
        if op == "ingest":
            shard, batch, rest = 0, rest[:5], rest[5:]
            expected = reference.process_batch_events(batch)
            lose_next_ack(cluster, shard)
            actual = cluster.process_batch_events(batch)
            assert [normalize(e) for e in actual] == [normalize(e) for e in expected]
        elif op == "advance_time":
            shard, now = 1, case.documents[39].arrival_time + 4.0
            rest = [document for document in rest if document.arrival_time >= now]
            expected = reference.advance_time(now)
            assert expected, "the advance must expire something"
            lose_next_ack(cluster, shard)
            assert normalize(cluster.advance_time(now)) == normalize(expected)
        elif op == "subscribe":
            shard = reference.register_query(late)
            lose_next_ack(cluster, shard)
            assert cluster.register_query(late) == shard
        else:
            query_id = case.queries[0].query_id
            shard = cluster.shard_of(query_id)
            reference.unregister_query(query_id)
            lose_next_ack(cluster, shard)
            cluster.unregister_query(query_id)
            assert query_id not in cluster.query_ids()
        restarts = [0, 0]
        restarts[shard] = 1
        assert cluster.restart_counts() == restarts
        assert digest(cluster) == digest(reference)
        for document in rest:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        assert digest(cluster) == digest(reference)
        cluster.check_invariants()


@pytest.mark.parametrize("max_restarts", [0, 1])
def test_a_worker_killed_while_being_seeded_spends_the_budget(max_restarts):
    """Every replacement dies as its seed arrives: each is one more restart
    attempt, the call ends in WorkerCrashError, and no process survives."""
    options = ProcOptions(max_restarts=max_restarts, backoff_ms=1.0, request_timeout_ms=10_000.0)
    cluster = make_cluster(options=options)
    processes = [shard.process for shard in cluster.shards]
    seeds = []
    spawn = cluster._spawn

    def spawn_then_die_on_restore(shard):
        worker = spawn(shard)
        processes.append(worker.process)
        send_request = worker.connection.send_request

        def send(method, params=None, deadline=None):
            if method == "restore":
                seeds.append(shard)
                os.kill(worker.process.pid, signal.SIGKILL)
                worker.process.join(5.0)
            return send_request(method, params, deadline)

        worker.connection.send_request = send
        return worker

    cluster._spawn = spawn_then_die_on_restore
    try:
        case = StreamCase(3, num_documents=4)
        cluster.register_query(case.queries[0])
        cluster.process(case.documents[0])
        os.kill(cluster.worker_pids()[0], signal.SIGKILL)
        time.sleep(0.1)  # let the kernel tear the socket down
        with pytest.raises(WorkerCrashError):
            cluster.process(case.documents[1])
        assert seeds == [0] * max_restarts
        assert cluster.total_restarts == max_restarts
    finally:
        cluster.close()
    for process in processes:
        process.join(5.0)
        assert not process.is_alive(), f"worker {process.pid} outlived close()"


def test_a_restored_worker_killed_is_reseeded_from_columns(monkeypatch):
    """SIGKILL a worker after a restore: the next ingest re-seeds it with
    the binary seed and answers like the in-process cluster, and the
    re-seeded worker's documents carry no text, like a batch's."""
    case = StreamCase(91, num_queries=6, num_documents=70)
    texts = [
        StreamedDocument(Document(d.doc_id, d.composition, f"text {d.doc_id}", {"n": 1}), d.arrival_time)
        for d in case.documents
    ]
    source = make_reference()
    for query in case.queries:
        source.register_query(query)
    source.process_batch_events(texts[:40])
    snapshot = snapshot_engine(source)
    reference = restore_into(snapshot, make_reference())
    seeds = []
    send_request = RpcConnection.send_request

    def spy(connection, method, params=None, deadline=None):
        if method == "restore":
            seeds.append(params)
        return send_request(connection, method, params, deadline)

    monkeypatch.setattr(RpcConnection, "send_request", spy)
    with make_cluster() as cluster:
        restore_into(snapshot, cluster)
        assert len(seeds) == 2
        seeds.clear()
        mirror = [(d.doc_id, d.arrival_time, d.composition.weights) for d in cluster.window]
        os.kill(cluster.worker_pids()[0], signal.SIGKILL)
        time.sleep(0.1)  # let the kernel tear the socket down
        for document in case.documents[40:]:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        assert cluster.restart_counts() == [1, 0]
        assert digest(cluster) == digest(reference)
        cluster.check_invariants()

        [(params, columns)] = seeds
        assert "documents" not in params["snapshot"]
        worker = ShardWorker(0, cluster.shard_spec)
        worker.handle("restore", params, columns)
        documents = list(worker.engine.index.documents)
        assert [(d.doc_id, d.arrival_time, d.composition.weights) for d in documents] == mirror
        assert {(d.document.text, d.document.metadata == {}) for d in documents} == {(None, True)}


def test_a_worker_dead_before_a_restore_is_replaced_and_seeded_once(monkeypatch):
    """A restore call is its own seed: the replacement is sent it once."""
    case = TieFreeCase(92, num_queries=6, num_documents=50)
    source = make_reference()
    for query in case.queries:
        source.register_query(query)
    source.process_batch_events(case.documents)
    snapshot = snapshot_engine(source)
    sent = []
    send_request = RpcConnection.send_request

    def spy(connection, method, params=None, deadline=None):
        sent.append((connection.peer, method))
        return send_request(connection, method, params, deadline)

    with make_cluster() as cluster:
        os.kill(cluster.worker_pids()[1], signal.SIGKILL)
        time.sleep(0.1)  # let the kernel tear the socket down
        monkeypatch.setattr(RpcConnection, "send_request", spy)
        restore_into(snapshot, cluster)
        assert sorted(sent) == [("shard-0", "restore"), ("shard-1", "restore"), ("shard-1", "restore")]
        assert cluster.restart_counts() == [0, 1]
        assert digest(cluster) == digest(source)
        cluster.check_invariants()


def test_workers_write_nothing(tmp_path):
    """Subscribe, ingest, SIGKILL and recover under a caller's data_dir:
    no WAL, no checkpoint -- the unix sockets are gone once connected."""
    case = StreamCase(12, num_queries=4, num_documents=30)
    options = ProcOptions(data_dir=str(tmp_path), backoff_ms=5.0)
    with make_cluster(options=options) as cluster:
        for query in case.queries:
            cluster.register_query(query)
        for index, document in enumerate(case.documents):
            if index == 15:
                os.kill(cluster.worker_pids()[0], signal.SIGKILL)
                time.sleep(0.1)  # let the kernel tear the socket down
            cluster.process(document)
        assert cluster.restart_counts() == [1, 0]
    assert not list(tmp_path.glob("**/wal"))
    assert not list(tmp_path.glob("**/checkpoint*.json"))
    assert sorted(tmp_path.rglob("*")) == []


@pytest.mark.parametrize(
    "attachment",
    [
        encode_documents([make_document(900, {1: 0.5}, arrival_time=1e9)])[:-3],  # truncated
        encode_documents([make_document(900, {1: 0.5}, arrival_time=1e9)]) + b"\x00",  # over-long
        b"\xfe" * 11,  # garbage
    ],
    ids=["truncated", "over-long", "garbage"],
)
def test_a_bad_attachment_is_a_typed_error_and_the_worker_serves_on(attachment):
    case = StreamCase(9, num_queries=4, num_documents=30)
    reference = make_reference()
    with make_cluster() as cluster:
        for query in case.queries:
            reference.register_query(query)
            cluster.register_query(query)
        for document in case.documents[:15]:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        pids = cluster.worker_pids()
        connection = cluster.shards[0].connection
        with pytest.raises(RpcTransportError):
            connection.call("process_batch_events", attachment)
        assert connection.call("ping")["window"] == 15
        for document in case.documents[15:]:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        assert cluster.worker_pids() == pids
        assert cluster.total_restarts == 0
        cluster.check_invariants()


def test_ids_outside_int64_are_refused_before_the_mirror_takes_them():
    """The shard channel's columns are int64: an id past them is a typed
    error on the coordinator, and the mirror and the workers still agree."""
    case = StreamCase(14, num_queries=4, num_documents=30)
    reference = make_reference()
    with make_cluster() as cluster:
        for query in case.queries:
            reference.register_query(query)
            cluster.register_query(query)
        for document in case.documents[:10]:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        clock = case.documents[9].arrival_time
        good = make_document(800, {1: 0.5}, arrival_time=clock)
        for bad in (
            make_document(2**63, {1: 0.5}, arrival_time=clock),
            make_document(801, {2**63: 0.5, 1: 0.25}, arrival_time=clock),
        ):
            with pytest.raises(DocumentError, match="int64"):
                cluster.process_batch_events([good, bad])
            assert len(cluster.window) == 10
            cluster.check_invariants()
        with pytest.raises(QueryError, match="int64"):
            cluster.register_query(make_query(2**63, {1: 1.0}))
        assert sorted(cluster.query_ids()) == sorted(reference.query_ids())
        for document in case.documents[10:]:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        assert digest(cluster) == digest(reference)
        cluster.check_invariants()


class CountingSocket:
    """A socket that counts the bytes written to and read from it."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = 0
        self.received = 0

    def sendall(self, data):
        self._sock.sendall(data)
        self.sent += len(data)

    def recv(self, size):
        chunk = self._sock.recv(size)
        self.received += len(chunk)
        return chunk

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_rpc_byte_counters_match_the_frames_on_the_wire():
    case = StreamCase(27, num_queries=5, num_documents=24)
    with runtime.observed(), make_cluster() as cluster:
        for query in case.queries:
            cluster.register_query(query)
        sockets = []
        for shard in cluster.shards:
            shard.connection._sock = CountingSocket(shard.connection._sock)
            sockets.append(shard.connection._sock)
        counter = runtime.counter_child
        sent = counter("repro_rpc_bytes_total", "RPC bytes on the wire", "direction", "sent")
        received = counter("repro_rpc_bytes_total", "RPC bytes on the wire", "direction", "received")
        before = sent.value, received.value
        cluster.process_batch_events(case.documents[:8])
        for document in case.documents[8:]:
            cluster.process(document)
        cluster.current_results()
        assert sent.value - before[0] == sum(sock.sent for sock in sockets) > 0
        assert received.value - before[1] == sum(sock.received for sock in sockets) > 0


# --------------------------------------------------------------------------- #
# calls in flight: the coordinator does not wait for acknowledgements
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("transport", ["unix", "tcp"])
def test_a_worker_killed_with_registrations_unread_is_seeded_with_them(transport):
    """Three times MAX_UNREAD registrations go to one worker without a read
    of their own, and it is SIGKILLed with a FIFO's worth unread: the
    replacement's seed holds every query and none is re-sent (a re-sent one
    would be a DuplicateQueryError), so the cluster answers like the
    in-process one after one restart."""
    case = TieFreeCase(57, num_queries=3 * MAX_UNREAD, num_documents=2 * WINDOW)
    reference = make_reference()
    with make_cluster(options=replace(FAST, transport=transport)) as cluster:
        for engine in (reference, cluster):
            engine.process_batch_events(case.documents[:WINDOW])
        for query in case.queries:
            reference.register_query(query, shard=0)
            cluster.register_query(query, shard=0)
        assert len(cluster.shards[0]._unread) == MAX_UNREAD
        os.kill(cluster.shards[0].process.pid, signal.SIGKILL)
        time.sleep(0.1)  # let the kernel tear the socket down
        for document in case.documents[WINDOW:]:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        assert cluster.restart_counts() == [1, 0]
        assert digest(cluster) == digest(reference)
        cluster.check_invariants()


def test_a_subscribe_and_unsubscribe_before_any_read_leave_no_query():
    case = TieFreeCase(58, num_queries=5, num_documents=50)
    reference = make_reference()
    late = case.queries[-1]
    with make_cluster() as cluster:
        for query in case.queries[:-1]:
            reference.register_query(query)
            cluster.register_query(query)
        for document in case.documents[:20]:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        shard = cluster.register_query(late)
        cluster.unregister_query(late.query_id)
        assert len(cluster.shards[shard]._unread) == 2
        assert late.query_id not in cluster.shards[shard].query_ids()
        for document in case.documents[20:]:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        assert digest(cluster) == digest(reference)
        assert cluster.restart_counts() == [0, 0]
        cluster.check_invariants()


def test_current_result_straight_after_subscribe_is_the_installed_top_k():
    case = TieFreeCase(59, num_queries=6, num_documents=40)
    reference = make_reference()
    with make_cluster() as cluster:
        for engine in (reference, cluster):
            engine.process_batch_events(case.documents)
        for query in case.queries:
            reference.register_query(query)
            cluster.register_query(query)
            installed = cluster.current_result(query.query_id)
            assert installed
            assert [(e.doc_id, e.score) for e in installed] == [
                (e.doc_id, e.score) for e in reference.current_result(query.query_id)
            ]


@pytest.mark.parametrize("transport", ["unix", "tcp"])
def test_five_times_the_bound_of_subscriptions_in_a_row_do_not_deadlock(transport):
    """Every request is answered, and an AF_UNIX socket queues only a few
    hundred unread answers before the worker blocks on send: without the
    bound, the coordinator's sends would stall until their deadline."""
    case = StreamCase(60, num_queries=1, num_documents=WINDOW)
    queries = [make_query(query_id, {query_id % 7: 1.0, 7: 0.5}, k=3) for query_id in range(5 * MAX_UNREAD)]
    reference = make_reference()
    options = replace(FAST, transport=transport, request_timeout_ms=10_000.0)
    with make_cluster(options=options) as cluster:
        for engine in (reference, cluster):
            engine.process_batch_events(case.documents)
        for query in queries:
            reference.register_query(query, shard=0)
            cluster.register_query(query, shard=0)
            assert len(cluster.shards[0]._unread) <= MAX_UNREAD
        assert cluster.shards[0].query_ids() == [query.query_id for query in queries]
        assert digest(cluster) == digest(reference)
        assert cluster.restart_counts() == [0, 0]


def test_an_error_answer_to_an_unwaited_register_is_raised_from_the_next_call():
    """The worker takes a query behind the coordinator's back, so it refuses
    the coordinator's own registration of it: the worker diverged.  The
    next call on its shard raises the typed error, and the call after that
    answers from a replacement seeded with the coordinator's state."""
    case = TieFreeCase(61, num_queries=5, num_documents=50)
    reference = make_reference()
    late = case.queries[-1]
    with make_cluster() as cluster:
        for query in case.queries[:-1]:
            reference.register_query(query)
            cluster.register_query(query)
        for document in case.documents[:20]:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        cluster.shards[0].register_query(late)
        assert cluster.register_query(late, shard=0) == reference.register_query(late, shard=0)
        with pytest.raises(DuplicateQueryError):
            cluster.process(case.documents[20])
        reference.process(case.documents[20])
        for document in case.documents[21:]:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        assert cluster.restart_counts() == [1, 0]
        assert digest(cluster) == digest(reference)
        cluster.check_invariants()


def test_a_scrape_whose_answer_comes_late_leaves_the_workers_alone(monkeypatch):
    """Shard 0's worker answers ``metrics`` after the scrape's deadline: the
    scrape yields no worker samples, the late answer is read and dropped in
    order by the next call, and no worker is replaced."""
    handle = ShardWorker.handle

    def slow_metrics(worker, method, params, attachment=None):
        if method == "metrics" and worker.shard_index == 0:
            time.sleep(1.3)
        return handle(worker, method, params, attachment)

    monkeypatch.setattr(ShardWorker, "handle", slow_metrics)  # forked workers inherit it
    case = TieFreeCase(62, num_queries=4, num_documents=40)
    reference = make_reference()
    options = ProcOptions(start_method="fork", request_timeout_ms=1_000.0, backoff_ms=5.0)
    with runtime.observed(), make_cluster(options=options) as cluster:
        for query in case.queries:
            reference.register_query(query)
            cluster.register_query(query)
        for document in case.documents[:20]:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        samples = cluster._scrape_workers()
        assert samples[("repro_proc_workers", ())] == 2.0
        assert not any(("shard", "0") in labels for _, labels in samples)
        for document in case.documents[20:]:
            assert normalize(cluster.process(document)) == normalize(reference.process(document))
        assert cluster.restart_counts() == [0, 0]
