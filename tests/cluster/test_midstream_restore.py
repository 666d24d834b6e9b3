"""Mid-stream checkpointing: a restored run must be bit-identical to an
uninterrupted one.

The cluster (and the service façade above it) advertises snapshot/restore
as a *pause* button: checkpoint between two batches, rebuild from the
snapshot, keep streaming, and nobody downstream can tell.  These tests pin
that down at both layers -- :func:`repro.persistence.snapshot_engine` and
:func:`repro.persistence.restore_into` directly, and
:meth:`repro.service.MonitoringService.snapshot` including the
asynchronous ingestion path -- comparing final top-k results, the
continuation's change stream, and the final snapshots themselves.

A snapshot records each query's ITA state (thresholds, tau and R), and a
restore installs it rather than searching again, so the continuation is
bit-identical on tie-heavy tapes too: the tie-heavy test below draws its
weights from a small grid and requires exact equality on every ITA kind.
"""

import asyncio
import json

import pytest

from repro.cluster.engine import ShardedEngine
from repro.core.engine import ITAEngine
from repro.documents.window import CountBasedWindow, WindowSpec
from repro.persistence import restore_into, snapshot_engine
from repro.query.query import ContinuousQuery
from repro.service import AsyncMonitoringService, EngineSpec, MonitoringService, spec_from_name
from tests.conftest import StreamCase, TieFreeCase


def chunked(documents, size):
    return [documents[start : start + size] for start in range(0, len(documents), size)]


def build_cluster(num_shards, window, queries=()):
    cluster = ShardedEngine(
        num_shards=num_shards,
        shard_factory=lambda: ITAEngine(CountBasedWindow(window)),
        placement="cost",
    )
    for query in queries:
        cluster.register_query(
            ContinuousQuery(query_id=query.query_id, weights=query.weights, k=query.k)
        )
    return cluster


@pytest.mark.parametrize("num_shards", [2, 3])
def test_cluster_restored_between_batches_matches_uninterrupted(num_shards):
    case = TieFreeCase(seed=71, num_queries=9, num_documents=180)
    window = 15
    batches = chunked(case.documents, 16)
    cut = len(batches) // 2

    uninterrupted = build_cluster(num_shards, window, case.queries)
    restored = build_cluster(num_shards, window, case.queries)

    for batch in batches[:cut]:
        uninterrupted.process_batch(batch)
        restored.process_batch(batch)

    # Pause: checkpoint the second cluster and rebuild it from scratch.
    restored = restore_into(snapshot_engine(restored), build_cluster(num_shards, window))
    assert restored.num_shards == num_shards
    restored.check_invariants()

    # Continue: both runs must report the identical change stream and,
    # event for event, the identical final state.
    for index, batch in enumerate(batches[cut:]):
        expected = uninterrupted.process_batch_events(batch)
        actual = restored.process_batch_events(batch)
        assert expected == actual, f"change stream diverged in batch {index} after restore"

    assert restored.current_results() == uninterrupted.current_results()
    assert restored.assignment() == uninterrupted.assignment()
    assert snapshot_engine(restored) == snapshot_engine(uninterrupted)
    restored.check_invariants()


TIE_HEAVY_KINDS = {
    "ita-bisect": {"kind": "ita", "storage": "bisect"},
    "ita-columnar": {"kind": "ita", "storage": "columnar"},
    "sharded-ita": {"kind": "sharded", "num_shards": 3},
    "sharded-proc": {"kind": "sharded-proc", "num_shards": 2},
}


@pytest.mark.parametrize("kind", sorted(TIE_HEAVY_KINDS))
def test_a_tie_heavy_tape_restored_mid_stream_continues_exactly(kind):
    """Weights on a six-value grid tie scores all the time; the restored
    engine must still report the uninterrupted one's change stream, event
    for event, and end in the identical snapshot."""
    case = StreamCase(seed=7, num_terms=8, num_queries=12, num_documents=240)
    spec = EngineSpec(window=WindowSpec.count(20), **TIE_HEAVY_KINDS[kind])
    batches = chunked(case.documents, 12)
    cut = len(batches) // 2
    uninterrupted, paused = spec.build(), spec.build()
    engines = [uninterrupted, paused]
    try:
        for engine in engines:
            for query in case.queries:
                engine.register_query(query)
            for batch in batches[:cut]:
                engine.process_batch_events(batch)
        snapshot = json.loads(json.dumps(snapshot_engine(paused)))
        restored = restore_into(snapshot, spec.build())
        engines.append(restored)
        assert snapshot_engine(restored) == snapshot_engine(uninterrupted)
        for index, batch in enumerate(batches[cut:]):
            expected = uninterrupted.process_batch_events(batch)
            assert restored.process_batch_events(batch) == expected, f"batch {index} after restore"
        assert snapshot_engine(restored) == snapshot_engine(uninterrupted)
        restored.check_invariants()
    finally:
        for engine in engines:
            getattr(engine, "close", lambda: None)()


def test_service_restored_between_batches_matches_uninterrupted():
    case = TieFreeCase(seed=83)
    spec = spec_from_name("sharded-ita-3", window=WindowSpec.count(12))
    batches = chunked(case.documents, 20)
    cut = 4

    def subscribed(service):
        for query in case.queries:
            service.subscribe(
                ContinuousQuery(query_id=query.query_id, weights=query.weights, k=query.k)
            )
        return service

    uninterrupted = subscribed(MonitoringService(spec))
    paused = subscribed(MonitoringService(spec))
    for batch in batches[:cut]:
        uninterrupted.ingest(batch)
        paused.ingest(batch)

    resumed = MonitoringService.restore(paused.snapshot())
    paused.close()

    for batch in batches[cut:]:
        expected = uninterrupted.ingest(batch)
        actual = resumed.ingest(batch)
        assert expected == actual, "continuation change stream diverged after restore"

    assert resumed.results() == uninterrupted.results()
    assert resumed.snapshot() == uninterrupted.snapshot()


def test_async_service_restored_between_batches_matches_sync_uninterrupted():
    """Checkpoint under the async lane, resume async, compare to one
    uninterrupted synchronous run -- crossing both the persistence seam
    and the execution-strategy seam at once."""
    case = TieFreeCase(seed=97)
    spec = spec_from_name("sharded-ita-3", window=WindowSpec.count(12))
    batches = chunked(case.documents, 20)
    cut = 4

    uninterrupted = MonitoringService(spec)
    for query in case.queries:
        uninterrupted.subscribe(
            ContinuousQuery(query_id=query.query_id, weights=query.weights, k=query.k)
        )
    sync_changes = [uninterrupted.ingest(batch) for batch in batches]

    async def interrupted_async_run():
        changes = []
        service = await AsyncMonitoringService(
            spec, queue_depth=2, batch_size=7
        ).start()
        for query in case.queries:
            await service.subscribe(
                ContinuousQuery(query_id=query.query_id, weights=query.weights, k=query.k)
            )
        for batch in batches[:cut]:
            changes.append(await service.ingest(batch))
        snapshot = await service.snapshot()
        await service.close()
        service = await AsyncMonitoringService.restore(
            snapshot, queue_depth=2, batch_size=7
        )
        for batch in batches[cut:]:
            changes.append(await service.ingest(batch))
        final = (await service.results(), await service.snapshot())
        await service.aclose()
        return changes, final

    async_changes, (async_results, async_snapshot) = asyncio.run(interrupted_async_run())
    assert async_changes == sync_changes
    assert async_results == uninterrupted.results()
    assert async_snapshot == uninterrupted.snapshot()
