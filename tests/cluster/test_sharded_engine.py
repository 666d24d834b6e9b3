"""Tests for the ShardedEngine's cluster behaviour.

The exact result equivalence against a single engine lives in
``tests/cluster/test_equivalence.py``; these tests cover the cluster-only
surface: routing, merging, batching, migration, counters and invariants.
"""

import pytest

from repro.cluster.engine import ShardedEngine
from repro.cluster.placement import RoundRobinPlacement
from repro.core.engine import ITAEngine
from repro.documents.window import CountBasedWindow, TimeBasedWindow
from repro.exceptions import (
    ConfigurationError,
    DuplicateQueryError,
    UnknownQueryError,
    WindowError,
)
from tests.conftest import StreamCase, make_document, make_query


def make_cluster(num_shards=3, window_size=10, placement="round-robin", track_changes=True):
    return ShardedEngine(
        num_shards=num_shards,
        shard_factory=lambda: ITAEngine(CountBasedWindow(window_size), track_changes=track_changes),
        placement=placement,
        track_changes=track_changes,
    )


class TestQueryManagement:
    def test_placement_partitions_queries(self):
        cluster = make_cluster(num_shards=3)
        for qid in range(7):
            cluster.register_query(make_query(qid, {1: 1.0}))
        assert cluster.shard_query_counts() == [3, 2, 2]
        assert sorted(cluster.query_ids()) == list(range(7))
        for qid in range(7):
            assert qid in cluster.shards[cluster.shard_of(qid)].query_ids()

    def test_explicit_shard_placement(self):
        cluster = make_cluster(num_shards=2)
        cluster.register_query(make_query(0, {1: 1.0}), shard=1)
        assert cluster.shard_of(0) == 1
        with pytest.raises(ConfigurationError):
            cluster.register_query(make_query(1, {1: 1.0}), shard=5)

    def test_duplicate_registration_rejected_and_state_clean(self):
        cluster = make_cluster(num_shards=2)
        cluster.register_query(make_query(0, {1: 1.0}))
        with pytest.raises(DuplicateQueryError):
            cluster.register_query(make_query(0, {2: 1.0}))
        cluster.check_invariants()

    def test_unregister_releases_everything(self):
        cluster = make_cluster(num_shards=2)
        cluster.register_query(make_query(0, {1: 1.0}))
        cluster.unregister_query(0)
        assert cluster.query_ids() == []
        assert cluster.shard_query_counts() == [0, 0]
        assert cluster.placement.query_counts() == [0, 0]
        with pytest.raises(UnknownQueryError):
            cluster.shard_of(0)
        with pytest.raises(UnknownQueryError):
            cluster.current_result(0)

    def test_mismatched_policy_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedEngine(num_shards=3, placement=RoundRobinPlacement(2))

    def test_failed_registration_leaves_no_phantom_state(self):
        class FlakyShard(ITAEngine):
            fail = False

            def register_query(self, query):
                if FlakyShard.fail:
                    raise RuntimeError("shard down")
                super().register_query(query)

        cluster = ShardedEngine(
            num_shards=2,
            shard_factory=lambda: FlakyShard(CountBasedWindow(5)),
            placement="cost",
        )
        cluster.register_query(make_query(0, {1: 1.0}))
        FlakyShard.fail = True
        with pytest.raises(RuntimeError):
            cluster.register_query(make_query(1, {1: 1.0}))
        FlakyShard.fail = False
        # The failed registration must not leak registry entries or
        # placement accounting (phantom load would skew later placements).
        assert cluster.query_ids() == [0]
        assert cluster.placement.query_counts() == cluster.shard_query_counts()
        cluster.register_query(make_query(1, {1: 1.0}))
        cluster.check_invariants()

    def test_failed_migration_restores_the_source_shard(self):
        class FlakyShard(ITAEngine):
            fail = False  # set per instance to take one shard down

            def register_query(self, query):
                if self.fail:
                    raise RuntimeError("shard down")
                super().register_query(query)

        cluster = ShardedEngine(
            num_shards=2,
            shard_factory=lambda: FlakyShard(CountBasedWindow(5)),
            placement="round-robin",
        )
        cluster.register_query(make_query(0, {1: 1.0}, k=1))
        cluster.process(make_document(0, {1: 0.8}, arrival_time=0.0))
        source = cluster.shard_of(0)
        before = cluster.current_result(0)
        # Only the migration target is down; the rollback to the source
        # must go through.
        cluster.shards[1 - source].fail = True
        with pytest.raises(RuntimeError):
            cluster.migrate_query(0, 1 - source)
        cluster.shards[1 - source].fail = False
        # The query must still live on the source shard with its result.
        assert cluster.shard_of(0) == source
        assert cluster.current_result(0) == before
        assert cluster.placement.query_counts() == cluster.shard_query_counts()
        cluster.check_invariants()


class TestProcessing:
    def test_changes_merged_across_shards_in_query_order(self):
        cluster = make_cluster(num_shards=3, window_size=5)
        for qid in range(6):
            cluster.register_query(make_query(qid, {qid % 2: 1.0}, k=1))
        changes = cluster.process(make_document(0, {0: 0.9, 1: 0.8}, arrival_time=0.0))
        assert [change.query_id for change in changes] == sorted(
            change.query_id for change in changes
        )
        assert {change.query_id for change in changes} == set(range(6))

    def test_batch_api_equals_per_event_processing(self):
        case = StreamCase(seed=7, num_documents=60)
        one_by_one = make_cluster(num_shards=2, window_size=8)
        batched = make_cluster(num_shards=2, window_size=8)
        for query in case.queries:
            one_by_one.register_query(query)
            batched.register_query(query)
        per_event_changes = []
        for document in case.documents:
            per_event_changes.extend(one_by_one.process(document))
        batch_changes = batched.process_many(case.documents)
        assert batch_changes == per_event_changes
        for query in case.queries:
            assert one_by_one.current_result(query.query_id) == batched.current_result(
                query.query_id
            )
        batched.check_invariants()

    def test_mirror_window_tracks_shard_windows(self):
        cluster = make_cluster(num_shards=2, window_size=4)
        for doc_id in range(9):
            cluster.process(make_document(doc_id, {1: 0.5}, arrival_time=float(doc_id)))
        assert len(cluster.window) == 4
        for shard in cluster.shards:
            assert len(shard.window) == 4
        cluster.check_invariants()

    def test_advance_time_fans_out(self):
        cluster = ShardedEngine(
            num_shards=2,
            shard_factory=lambda: ITAEngine(TimeBasedWindow(span=5.0)),
            placement="round-robin",
        )
        cluster.register_query(make_query(0, {1: 1.0}, k=1))
        cluster.process(make_document(0, {1: 0.7}, arrival_time=0.0))
        assert cluster.current_result(0) != []
        changes = cluster.advance_time(10.0)
        assert cluster.current_result(0) == []
        assert [change.query_id for change in changes] == [0]
        assert len(cluster.window) == 0

    def test_batch_rejected_part_way_keeps_its_prefix_like_ita(self):
        """A stale arrival mid-batch: the shards keep the accepted prefix,
        exactly as one engine does, instead of lagging the mirror."""
        single = ITAEngine(CountBasedWindow(10), track_changes=True)
        cluster = make_cluster(num_shards=2)
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
        assert cluster.current_results() == single.current_results()
        cluster.check_invariants()

    def test_track_changes_false_returns_no_changes(self):
        cluster = make_cluster(num_shards=2, track_changes=False)
        cluster.register_query(make_query(0, {1: 1.0}, k=1))
        changes = cluster.process(make_document(0, {1: 0.9}, arrival_time=0.0))
        assert changes == []
        assert cluster.current_result(0) != []


class TestCountersAndTimers:
    def test_counters_aggregate_across_shards(self):
        cluster = make_cluster(num_shards=3, window_size=5)
        for qid in range(6):
            cluster.register_query(make_query(qid, {1: 1.0}, k=1))
        for doc_id in range(10):
            cluster.process(make_document(doc_id, {1: 0.5}, arrival_time=float(doc_id)))
        # Every shard counts every arrival: the aggregate is shards * events.
        assert cluster.counters.arrivals == 3 * 10
        assert cluster.counters.scores_computed == sum(
            shard.counters.scores_computed for shard in cluster.shards
        )
        snapshot = cluster.counters.copy()
        cluster.counters.reset()
        assert cluster.counters.arrivals == 0
        assert all(shard.counters.arrivals == 0 for shard in cluster.shards)
        assert snapshot.arrivals == 30  # the copy is detached

    def test_dispatcher_times_each_shard(self):
        cluster = make_cluster(num_shards=2, window_size=5)
        cluster.register_query(make_query(0, {1: 1.0}, k=1))
        for doc_id in range(5):
            cluster.process(make_document(doc_id, {1: 0.5}, arrival_time=float(doc_id)))
        assert all(timer.count == 5 for timer in cluster.dispatcher.shard_timers)
        assert all(total >= 0.0 for total in cluster.dispatcher.shard_total_ms())
        cluster.dispatcher.reset_timers()
        assert cluster.dispatcher.shard_total_ms() == [0.0, 0.0]

    def test_per_shard_query_work_shrinks_with_more_shards(self):
        """The scaling claim, on deterministic counters: the busiest
        shard's score computations decrease as shards are added."""
        case = StreamCase(seed=31, num_queries=16, num_documents=100)
        busiest = {}
        for num_shards in (1, 2, 4):
            cluster = make_cluster(num_shards=num_shards, window_size=10)
            for query in case.queries:
                cluster.register_query(query)
            cluster.counters.reset()
            cluster.process_many(case.documents)
            busiest[num_shards] = max(
                shard.counters.scores_computed for shard in cluster.shards
            )
        assert busiest[1] >= busiest[2] >= busiest[4]
        assert busiest[4] < busiest[1]


class TestMigration:
    def test_migration_preserves_results(self):
        case = StreamCase(seed=13, num_documents=60)
        cluster = make_cluster(num_shards=3, window_size=9)
        for query in case.queries:
            cluster.register_query(query)
        for document in case.documents:
            cluster.process(document)
        before = {qid: cluster.current_result(qid) for qid in cluster.query_ids()}
        for qid in cluster.query_ids():
            cluster.migrate_query(qid, (cluster.shard_of(qid) + 1) % 3)
        for qid, expected in before.items():
            assert cluster.current_result(qid) == expected
        cluster.check_invariants()

    def test_migration_to_same_shard_is_noop(self):
        cluster = make_cluster(num_shards=2)
        cluster.register_query(make_query(0, {1: 1.0}))
        shard = cluster.shard_of(0)
        cluster.migrate_query(0, shard)
        assert cluster.shard_of(0) == shard

    def test_migration_to_invalid_shard_rejected(self):
        cluster = make_cluster(num_shards=2)
        cluster.register_query(make_query(0, {1: 1.0}))
        with pytest.raises(ConfigurationError):
            cluster.migrate_query(0, 2)

    def test_rebalance_with_the_live_policy_rejected(self):
        cluster = make_cluster(num_shards=2, placement="cost")
        for qid in range(4):
            cluster.register_query(make_query(qid, {1: 1.0}))
        counts_before = cluster.placement.query_counts()
        with pytest.raises(ConfigurationError):
            cluster.rebalance(cluster.placement)
        # The rejected call must not have touched the live accounting.
        assert cluster.placement.query_counts() == counts_before

    def test_rebalance_evens_out_a_skewed_cluster(self):
        cluster = make_cluster(num_shards=2)
        # Pile every query onto shard 0, then rebalance.
        for qid in range(8):
            cluster.register_query(make_query(qid, {1: 1.0, 2: 0.5}, k=2), shard=0)
        for doc_id in range(20):
            cluster.process(make_document(doc_id, {1: 0.5, 2: 0.4}, arrival_time=float(doc_id)))
        before = {qid: cluster.current_result(qid) for qid in cluster.query_ids()}
        assert cluster.shard_query_counts() == [8, 0]
        migrated = cluster.rebalance()
        assert migrated == 4
        assert cluster.shard_query_counts() == [4, 4]
        for qid, expected in before.items():
            assert cluster.current_result(qid) == expected
        cluster.check_invariants()


class TestClusterResults:
    def test_current_results_unions_all_shards(self):
        cluster = make_cluster(num_shards=3, window_size=5)
        for qid in range(5):
            cluster.register_query(make_query(qid, {1: 1.0}, k=1))
        cluster.process(make_document(0, {1: 0.9}, arrival_time=0.0))
        results = cluster.current_results()
        assert sorted(results) == list(range(5))
        assert all(result[0].doc_id == 0 for result in results.values())

    def test_top_documents_across_queries(self):
        cluster = make_cluster(num_shards=2, window_size=5)
        cluster.register_query(make_query(0, {1: 1.0}, k=2))
        cluster.register_query(make_query(1, {2: 1.0}, k=2))
        cluster.process(make_document(0, {1: 0.9}, arrival_time=0.0))
        cluster.process(make_document(1, {2: 0.7}, arrival_time=1.0))
        top = cluster.top_documents(2)
        assert [entry.doc_id for entry in top] == [0, 1]

    def test_single_shard_cluster_is_allowed(self):
        cluster = make_cluster(num_shards=1)
        cluster.register_query(make_query(0, {1: 1.0}))
        cluster.process(make_document(0, {1: 0.9}, arrival_time=0.0))
        assert cluster.current_result(0)[0].doc_id == 0

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedEngine(num_shards=0)
