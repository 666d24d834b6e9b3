"""Async firehose: off-loop ingestion with backpressure on a sharded cluster.

Run with::

    python examples/async_firehose.py

A simulated news firehose feeds a 4-shard cluster through the
asynchronous service:

1. describe the cluster with a typed :class:`~repro.EngineSpec` and wrap
   it in an :class:`~repro.AsyncMonitoringService` (``async with`` starts
   the ingestion lane: one worker thread, off the event loop),
2. ``subscribe()`` standing queries whose callbacks fire on the event
   loop, in stream order, as each batch completes,
3. a *fast producer* pushes headlines while a deliberately *small queue
   depth* exercises backpressure -- the producer's ``await`` blocks while
   the lane is full, instead of buffering without bound,
4. reads (``results()``) and ``snapshot()`` drain the lane first, so they
   observe exactly the documents ingested before the call,
5. the lane's stats show how long the producer waited and how long the
   engine was busy.

The results are bit-identical to synchronous ``ingest()`` -- the demo
checks itself against a sequential run of the same stream.
"""

from __future__ import annotations

import asyncio

from repro import AsyncMonitoringService, EngineSpec, MonitoringService, WindowSpec

TOPICS = [
    "market rally interest rates",
    "storm warning coastal flood",
    "tech earnings beat expectations",
    "inflation data rate hike",
]

#: a tiny deterministic "firehose": cyclic headlines built from the topics
def headlines(count: int) -> list:
    lines = []
    for index in range(count):
        topic = TOPICS[index % len(TOPICS)]
        lines.append(f"update {index}: breaking story about {topic}")
    return lines


def cluster_spec() -> EngineSpec:
    return EngineSpec(kind="sharded", num_shards=4, window=WindowSpec.count(64))


async def main_async() -> dict:
    alerts = []
    async with AsyncMonitoringService(
        cluster_spec(),
        queue_depth=2,   # small bound => visible backpressure
        batch_size=8,
    ) as service:
        for topic in TOPICS:
            await service.subscribe(
                topic,
                k=3,
                on_change=lambda alert, topic=topic: alerts.append(
                    (topic, alert.document.doc_id if alert.document else None)
                ),
            )

        # The producer submits as fast as it can; the bounded lane makes
        # it wait whenever the cluster falls behind.
        await service.ingest(headlines(160))

        results = await service.results()   # drains first: read-your-writes
        stats = service.stats
        print(f"lane: {stats.batches} batches, {stats.events} events, "
              f"max {stats.max_inflight} in flight")
        print(f"engine busy {stats.busy_ms:.1f} ms on the worker thread; "
              f"producer blocked {stats.submit_wait_ms:.1f} ms on backpressure")
        print(f"alerts delivered on the event loop: {len(alerts)}")
        snapshot = await service.snapshot()
    return {"results": results, "snapshot": snapshot, "alerts": len(alerts)}


def main() -> None:
    concurrent = asyncio.run(main_async())

    # The same stream through the synchronous façade must agree exactly.
    with MonitoringService(cluster_spec()) as sequential:
        for topic in TOPICS:
            sequential.subscribe(topic, k=3)
        sequential.ingest(headlines(160))
        assert sequential.results() == concurrent["results"]
        assert sequential.snapshot()["engine"] == concurrent["snapshot"]["engine"]
    print("sequential re-run agrees bit-for-bit with the async service")

    print("\nfinal watchlists:")
    for query_id, result in sorted(concurrent["results"].items()):
        docs = ", ".join(f"#{entry.doc_id}({entry.score:.2f})" for entry in result)
        print(f"  {TOPICS[query_id]!r}: {docs}")


if __name__ == "__main__":
    main()
