"""Sharded monitoring: scale the server out across query shards.

Run with::

    python examples/sharded_monitoring.py

A :class:`~repro.ShardedEngine` hosts the continuous queries of many users
on several inner ITA engines.  The cluster is described -- like every
other engine -- by a typed :class:`~repro.EngineSpec` and built through
the engine-kind registry.  Queries are spread with the cost-model
placement (long queries are expensive, so they land on different shards),
every headline is fanned out to all shards, and the merged answers are
exactly what one big engine would report.  The demo also migrates a query
between shards live and checkpoints/restores the whole cluster.
"""

from __future__ import annotations

from repro import (
    Analyzer,
    ContinuousQuery,
    DocumentStream,
    EngineSpec,
    FixedRateArrivalProcess,
    InMemoryCorpus,
    Vocabulary,
    WindowSpec,
    restore_into,
    snapshot_engine,
)


HEADLINES = [
    "Stocks rally as the central bank holds interest rates steady",
    "Severe storm warning issued for the northern coast tonight",
    "Markets tumble on fresh inflation data and rate-hike fears",
    "Tech earnings beat expectations, lifting the broader market",
    "Flood defences hold as the storm passes the coastal towns",
    "Investors weigh recession risk as bond yields climb again",
    "Championship final ends in dramatic extra-time victory",
    "Central bank hints at rate cuts if inflation keeps cooling",
]

#: (query text, k) of the standing queries -- different lengths, so the
#: cost-model placement has real imbalance to avoid
QUERIES = [
    ("stock market rates", 3),
    ("storm warning coast", 2),
    ("inflation rate cut central bank", 3),
    ("championship victory", 2),
    ("recession risk bond yields market", 3),
    ("tech earnings", 2),
]


def main() -> None:
    analyzer = Analyzer()
    vocabulary = Vocabulary()
    corpus = InMemoryCorpus(HEADLINES, analyzer=analyzer, vocabulary=vocabulary)

    spec = EngineSpec(
        kind="sharded",
        num_shards=3,
        window=WindowSpec.count(5),
        placement="cost",
    )
    cluster = spec.build()
    print(f"built a {cluster.num_shards}-shard cluster from spec: {spec.to_dict()}\n")
    for query_id, (text, k) in enumerate(QUERIES):
        query = ContinuousQuery.from_text(
            query_id, text, k=k, analyzer=analyzer, vocabulary=vocabulary
        )
        shard = cluster.register_query(query)
        print(f"query {query_id} ({text!r:45s}) -> shard {shard}")
    print(f"queries per shard: {cluster.shard_query_counts()}\n")

    stream = DocumentStream(corpus, FixedRateArrivalProcess(rate=1.0))
    changes = cluster.process_many(stream)
    print(f"streamed {len(HEADLINES)} headlines; {len(changes)} result changes\n")

    print("merged per-query results:")
    for query_id, result in cluster.current_results().items():
        docs = ", ".join(f"#{entry.doc_id}({entry.score:.2f})" for entry in result)
        print(f"  query {query_id} @ shard {cluster.shard_of(query_id)}: {docs}")

    print("\ncluster-wide best documents:")
    for entry in cluster.top_documents(3):
        print(f"  #{entry.doc_id} score={entry.score:.2f}  {HEADLINES[entry.doc_id]!r}")

    # Live migration: move query 0 to another shard; its result is
    # recomputed over the target shard's (identical) window, so nothing
    # the user sees changes.
    before = cluster.current_result(0)
    target = (cluster.shard_of(0) + 1) % cluster.num_shards
    cluster.migrate_query(0, target)
    assert cluster.current_result(0) == before
    print(f"\nmigrated query 0 to shard {target}; result unchanged")

    # Whole-cluster checkpoint, in the one snapshot format (the window
    # once, each query with its shard), loaded into a fresh cluster built
    # from the same spec: same placement, same per-query results.
    snapshot = snapshot_engine(cluster)
    restored = restore_into(snapshot, spec.build())
    assert restored.assignment() == cluster.assignment()
    assert restored.current_results() == cluster.current_results()
    print(
        f"checkpoint round-trip ok: {restored.num_shards} shards, "
        f"{len(restored.query_ids())} queries, window of {len(restored.window)}"
    )


if __name__ == "__main__":
    main()
