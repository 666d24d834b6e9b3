"""ProcessClusterEngine: equivalence, supervision, and durability."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.cluster.engine import ShardedEngine
from repro.core.engine import ITAEngine
from repro.exceptions import (
    ConfigurationError,
    DuplicateQueryError,
    UnknownQueryError,
    WorkerCrashError,
)
from repro.net.cluster import ProcessClusterEngine
from repro.net.options import ProcOptions
from repro.service import EngineSpec, MonitoringService, WindowSpec
from tests.conftest import StreamCase

WINDOW = 32
FAST = ProcOptions(
    request_timeout_ms=30_000.0, backoff_ms=5.0, checkpoint_every=16
)


def make_cluster(num_workers=2, placement="hash", options=FAST, window=WINDOW):
    return ProcessClusterEngine(
        num_workers=num_workers,
        window_spec=WindowSpec.count(window),
        placement=placement,
        options=options,
    )


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


def test_sigkill_mid_stream_recovers_from_wal_bit_identically():
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
