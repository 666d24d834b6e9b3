"""Sharded-cluster equivalence: merged results must be *identical* to a
single ITA engine's -- same documents, same scores, same tie-breaks.

Every query runs the full algorithm on exactly one shard over a full copy
of the window, so unlike the oracle-equivalence tests (which tolerate ties)
these compare the reported :class:`~repro.query.result.ResultEntry` lists
for exact equality, across 1, 2 and 4 shards and every placement policy.
"""

import pytest

from repro.cluster.engine import ShardedEngine
from repro.core.engine import ITAEngine
from repro.documents.window import CountBasedWindow, TimeBasedWindow
from repro.query.query import ContinuousQuery
from tests.conftest import StreamCase


def assert_identical_results(single, cluster):
    assert sorted(single.query_ids()) == sorted(cluster.query_ids())
    for query_id in single.query_ids():
        assert single.current_result(query_id) == cluster.current_result(query_id), (
            f"query {query_id}: sharded result diverged from the single engine"
        )
    assert cluster.current_results() == single.current_results()


@pytest.mark.parametrize("num_shards", [1, 2, 4])
@pytest.mark.parametrize("placement", ["round-robin", "hash", "cost"])
def test_merged_results_identical_to_single_engine(num_shards, placement):
    case = StreamCase(seed=17, num_queries=10, num_documents=150)
    window = 12
    single = ITAEngine(CountBasedWindow(window))
    cluster = ShardedEngine(
        num_shards=num_shards,
        shard_factory=lambda: ITAEngine(CountBasedWindow(window)),
        placement=placement,
    )
    for query in case.queries:
        single.register_query(query)
        cluster.register_query(query)
    for position, document in enumerate(case.documents):
        single_changes = single.process(document)
        cluster_changes = cluster.process(document)
        # One order everywhere: each event's changes come by query id.
        assert single_changes == cluster_changes, (
            f"change streams diverged at event {position}"
        )
        if position % 10 == 0:
            assert_identical_results(single, cluster)
    assert_identical_results(single, cluster)
    cluster.check_invariants()


@pytest.mark.parametrize("num_shards", [2, 4])
def test_equivalence_on_synthetic_corpus_workload(num_shards):
    """The acceptance workload: a generated corpus/query stream."""
    from repro.documents.corpus import SyntheticCorpus, SyntheticCorpusConfig
    from repro.documents.stream import DocumentStream, FixedRateArrivalProcess

    corpus = SyntheticCorpus(
        SyntheticCorpusConfig(dictionary_size=300, mean_log_length=3.0, seed=23)
    )
    queries = [
        ContinuousQuery.from_term_ids(query_id, corpus.sample_query_terms(4), k=5)
        for query_id in range(12)
    ]
    single = ITAEngine(CountBasedWindow(40))
    cluster = ShardedEngine(
        num_shards=num_shards,
        shard_factory=lambda: ITAEngine(CountBasedWindow(40)),
        placement="cost",
    )
    for query in queries:
        single.register_query(query)
        cluster.register_query(query)
    stream = list(DocumentStream(corpus, FixedRateArrivalProcess(rate=10.0), limit=200))
    # Exercise the batch fan-out on the cluster against per-event processing
    # on the single engine.
    single.process_many(stream)
    cluster.process_many(stream)
    assert_identical_results(single, cluster)
    cluster.check_invariants()


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_equivalence_with_time_based_windows(num_shards):
    case = StreamCase(seed=41, num_documents=100)
    span = 15.0
    single = ITAEngine(TimeBasedWindow(span))
    cluster = ShardedEngine(
        num_shards=num_shards,
        shard_factory=lambda: ITAEngine(TimeBasedWindow(span)),
        placement="hash",
    )
    for query in case.queries:
        single.register_query(query)
        cluster.register_query(query)
    for position, document in enumerate(case.documents):
        single.process(document)
        cluster.process(document)
        if position % 9 == 0:
            assert_identical_results(single, cluster)
    final_time = case.documents[-1].arrival_time + 2 * span
    single.advance_time(final_time)
    cluster.advance_time(final_time)
    assert_identical_results(single, cluster)


def test_equivalence_survives_mid_stream_registration_and_migration():
    case = StreamCase(seed=53, num_documents=120)
    single = ITAEngine(CountBasedWindow(14))
    cluster = ShardedEngine(
        num_shards=3,
        shard_factory=lambda: ITAEngine(CountBasedWindow(14)),
        placement="round-robin",
    )
    half = len(case.queries) // 2
    for query in case.queries[:half]:
        single.register_query(query)
        cluster.register_query(query)
    for position, document in enumerate(case.documents):
        if position == 30:
            for query in case.queries[half:]:
                single.register_query(query)
                cluster.register_query(query)
        if position == 70:
            for query_id in cluster.query_ids():
                cluster.migrate_query(query_id, (cluster.shard_of(query_id) + 1) % 3)
        single.process(document)
        cluster.process(document)
        if position >= 30 and position % 8 == 0:
            assert_identical_results(single, cluster)
    assert_identical_results(single, cluster)
    cluster.check_invariants()
