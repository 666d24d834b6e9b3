"""The proc cluster is a ShardedEngine: what the one coordinator gives it.

Migration, rebalancing and counter resets are written once, in
:class:`~repro.cluster.engine.ShardedEngine`; over
:class:`~repro.net.remote.RemoteShard` stubs they must behave exactly as
they do over in-process shards.
"""

import os
import signal
import time

from repro.cluster.engine import ShardedEngine
from repro.core.engine import ITAEngine
from repro.net.cluster import ProcessClusterEngine
from repro.net.options import ProcOptions
from repro.observability.opcounters import OperationCounters
from repro.service import WindowSpec
from tests.conftest import TieFreeCase

WINDOW = WindowSpec.count(24)
FAST = ProcOptions(request_timeout_ms=30_000.0, backoff_ms=5.0)


def make_pair():
    reference = ShardedEngine(
        num_shards=2,
        shard_factory=lambda: ITAEngine(WINDOW.build(), track_changes=True),
        placement="hash",
    )
    cluster = ProcessClusterEngine(
        num_workers=2, window_spec=WINDOW, placement="hash", options=FAST
    )
    return reference, cluster


def normalize(changes):
    return [
        (
            change.query_id,
            tuple((entry.doc_id, entry.score) for entry in change.entered),
            tuple((entry.doc_id, entry.score) for entry in change.left),
        )
        for change in changes
    ]


def assert_same_stream(reference, cluster, documents):
    for document in documents:
        assert normalize(cluster.process(document)) == normalize(reference.process(document))
    assert cluster.current_results() == reference.current_results()


def test_migration_and_rebalance_match_the_in_process_cluster():
    case = TieFreeCase(41, num_queries=8, num_documents=100)
    reference, cluster = make_pair()
    with cluster:
        for query in case.queries:
            assert cluster.register_query(query, shard=0) == reference.register_query(query, shard=0)
        assert_same_stream(reference, cluster, case.documents[:30])

        for query in case.queries[:2]:
            reference.migrate_query(query.query_id, 1)
            cluster.migrate_query(query.query_id, 1)
        assert cluster.assignment() == reference.assignment()
        assert cluster.current_results() == reference.current_results()
        cluster.check_invariants()
        assert_same_stream(reference, cluster, case.documents[30:50])

        before = cluster.assignment()
        migrated = cluster.rebalance()
        assert migrated == reference.rebalance() > 0
        assert cluster.assignment() == reference.assignment()
        assert cluster.shard_query_counts() == reference.shard_query_counts()
        assert cluster.current_results() == reference.current_results()
        cluster.check_invariants()
        assert_same_stream(reference, cluster, case.documents[50:70])

        # SIGKILL the worker a query was migrated to: the next ingest
        # re-seeds the replacement with that query on board.
        moved = next(qid for qid, shard in cluster.assignment().items() if before[qid] != shard)
        target = cluster.shard_of(moved)
        os.kill(cluster.worker_pids()[target], signal.SIGKILL)
        time.sleep(0.1)  # let the kernel tear the socket down
        assert_same_stream(reference, cluster, case.documents[70:])
        restarts = [0, 0]
        restarts[target] = 1
        assert cluster.restart_counts() == restarts
        assert moved in cluster.shards[target].query_ids()
        cluster.check_invariants()


def test_counters_reset_zeroes_every_worker():
    case = TieFreeCase(43, num_queries=6, num_documents=40)
    reference, cluster = make_pair()
    with cluster:
        for query in case.queries:
            cluster.register_query(query)
            reference.register_query(query)
        cluster.process_batch_events(case.documents[:30])
        reference.process_batch_events(case.documents[:30])
        assert cluster.counters.arrivals == 2 * 30
        cluster.counters.reset()
        reference.counters.reset()
        assert cluster.counters.as_dict() == OperationCounters().as_dict()
        for document in case.documents[30:]:
            cluster.process(document)
            reference.process(document)
        assert cluster.counters.as_dict() == reference.counters.as_dict()
        assert cluster.counters.arrivals == 2 * 10
