"""A cluster restore seeds every shard in one call and equals the replay.

:func:`repro.persistence.restore_into` hands a query-placing engine its
decoded snapshot (:meth:`~repro.cluster.engine.ShardedEngine.seed_shards`):
the coordinator takes the registry and placements, and each shard gets its
whole state at once -- an in-process shard replays it, a worker is sent one
``restore`` RPC whose documents are the shard channel's columns.  The
expected engine here is built by hand with the public calls a replay
through the cluster makes -- ``process_batch_events`` per
``REPLAY_CHUNK`` chunk, ``advance_time(clock)``, then, in registry order,
``install_query(query, state, shard)`` for a query with a recorded state
and ``register_query(query, shard)`` for one without -- and the two must
agree on every shard's per-query thresholds, ``tau`` and result items, on
the counters, ``assignment()``, the placement books and the results.
"""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter

import pytest

from repro.cluster.engine import ShardedEngine
from repro.exceptions import ConfigurationError, DocumentError, QueryError
from repro.net.protocol import RpcConnection
from repro.persistence import (
    REPLAY_CHUNK,
    _document_from_record,
    _query_from_record,
    restore_into,
    snapshot_engine,
)
from repro.queryscale import QueryScaleOptions
from repro.service import EngineSpec, MonitoringService, WindowSpec
from tests.conftest import StreamCase, TieFreeCase

#: each holds more than REPLAY_CHUNK of CASE, so a replay takes several
#: batches; the time window's snapshots are taken after a clock advance
WINDOWS = {"count": WindowSpec.count(300), "time": WindowSpec.time(180.0)}
WINDOW = WINDOWS["count"]
CASE = TieFreeCase(seed=41, num_queries=14, num_documents=420)


def spec_of(kind, num_shards, window=WINDOW, **extra):
    return EngineSpec(kind=kind, num_shards=num_shards, window=window, placement="cost", **extra)


def in_process_twin(spec):
    """The in-process cluster a ``sharded-proc`` spec is bit-identical to."""
    return dataclasses.replace(spec, kind="sharded", proc=None)


def by_hand(snapshot, engine):
    """What a replay through the cluster's own calls builds from ``snapshot``."""
    records = sorted(snapshot["documents"], key=lambda record: record["arrival_time"])
    documents = [_document_from_record(record) for record in records]
    for start in range(0, len(documents), REPLAY_CHUNK):
        engine.process_batch_events(documents[start : start + REPLAY_CHUNK])
    if snapshot.get("clock") is not None:
        engine.advance_time(float(snapshot["clock"]))
    for record in snapshot["queries"]:
        query = _query_from_record(record)
        if "state" in record:
            engine.install_query(query, record["state"], record.get("shard"))
        else:
            engine.register_query(query, record.get("shard"))
    return engine


def query_states(engine):
    """Every query's result items, local thresholds and tau on one engine."""
    states = {}
    for query_id in sorted(engine.query_ids()):
        state = engine.state_of(query_id)
        states[query_id] = (tuple(state.results), dict(state.thresholds), state.tau)
    return states


def books(placement):
    loads = getattr(placement, "shard_loads", None)
    return placement.query_counts(), loads() if loads else None


def cluster_view(cluster):
    return {
        "results": cluster.current_results(),
        "counters": [shard.counters.as_dict() for shard in cluster.shards],
        "assignment": cluster.assignment(),
        "registry": cluster.query_ids(),
        "books": books(cluster.placement),
        "window": [(d.doc_id, d.arrival_time) for d in cluster.window],
        "clock": cluster.window.clock,
    }


class SentRequests:
    """Every request the coordinator writes, by method, and each ``restore``'s params."""

    def __init__(self, monkeypatch):
        self.methods = Counter()
        self.seeds = []
        send_request = RpcConnection.send_request

        def spy(connection, method, params=None, deadline=None):
            self.methods[method] += 1
            if method == "restore":
                self.seeds.append((connection.peer, params))
            return send_request(connection, method, params, deadline)

        monkeypatch.setattr(RpcConnection, "send_request", spy)

    def seeded_engines(self, spec):
        """The engine each worker built from its seed, rebuilt in-process, by shard."""
        engines = {}
        for peer, (params, columns) in self.seeds:
            engines[peer] = restore_into({**params["snapshot"], "columns": columns}, spec.build())
        return [engines[f"shard-{index}"] for index in range(len(engines))]


def assert_seeded_like_by_hand(restored, expected, spec, sent):
    if spec.kind == "sharded-proc":
        assert dict(sent.methods) == {"restore": spec.num_shards}
        shards = sent.seeded_engines(spec.shard_spec())
    else:
        shards = restored.shards
    assert cluster_view(restored) == cluster_view(expected)
    assert [query_states(shard) for shard in shards] == [query_states(shard) for shard in expected.shards]
    assert [(len(shard.window), shard.window.clock) for shard in shards] == [
        (len(shard.window), shard.window.clock) for shard in expected.shards
    ]
    restored.check_invariants()


def snapshot_of(engine, window):
    for query in CASE.queries:
        engine.register_query(query)
    engine.process_batch_events(CASE.documents)
    if window.kind == "time":
        engine.advance_time(CASE.documents[-1].arrival_time + 10.0)
    return snapshot_engine(engine)


def tagged_snapshot(num_shards, window=WINDOW):
    shard_spec = spec_of("sharded", num_shards, window).shard_spec()
    return snapshot_of(
        ShardedEngine(num_shards=num_shards, shard_factory=shard_spec.build, placement="round-robin"), window
    )


def untagged_snapshot(window=WINDOW):
    return snapshot_of(EngineSpec(kind="ita", window=window).build(), window)


CLUSTERS = [("sharded", 2), ("sharded", 4), ("sharded-proc", 2)]


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("tags", ["tagged", "untagged"])
@pytest.mark.parametrize("kind,num_shards", CLUSTERS)
def test_a_seeded_restore_equals_the_replay(kind, num_shards, tags, window, monkeypatch):
    window = WINDOWS[window]
    source = tagged_snapshot(num_shards, window) if tags == "tagged" else untagged_snapshot(window)
    snapshot = json.loads(json.dumps(source))
    assert all(("shard" in record) is (tags == "tagged") for record in snapshot["queries"])
    assert len(snapshot["documents"]) > REPLAY_CHUNK
    if window.kind == "time":
        assert snapshot["clock"] > max(record["arrival_time"] for record in snapshot["documents"])
    spec = spec_of(kind, num_shards, window)
    expected = by_hand(snapshot, in_process_twin(spec).build())
    restored = spec.build()
    sent = SentRequests(monkeypatch)
    try:
        restore_into(snapshot, restored)
        assert_seeded_like_by_hand(restored, expected, spec, sent)
    finally:
        getattr(restored, "close", lambda: None)()


@pytest.mark.parametrize("kind,num_shards", CLUSTERS)
def test_a_dedup_service_snapshot_restores_like_the_replay(kind, num_shards, monkeypatch):
    spec = spec_of(kind, num_shards, queryscale=QueryScaleOptions())
    words = "market bank rate price oil gold bond trade fund stock crisis vote".split()
    rng = random.Random(5)
    service = MonitoringService(spec)
    try:
        for _ in range(24):  # texts repeat: dedup shares their canonical queries
            service.subscribe(" ".join(rng.sample(words[:6], 2) if rng.random() < 0.5 else words[:2]), k=3)
        for _ in range(310):
            service.ingest(" ".join(rng.choices(words, k=rng.randint(3, 9))))
        snapshot = json.loads(json.dumps(service.snapshot()))
    finally:
        service.close()
    assert len(snapshot["engine"]["queries"]) < 24
    expected = by_hand(snapshot["engine"], in_process_twin(spec).build())
    sent = SentRequests(monkeypatch)
    restored = MonitoringService.restore(snapshot)
    try:
        assert_seeded_like_by_hand(restored.engine, expected, spec, sent)
    finally:
        restored.close()


def test_a_durable_proc_cluster_reopens_through_the_seeds(tmp_path, monkeypatch):
    spec = spec_of("sharded-proc", 2)
    service = MonitoringService.open(tmp_path, spec)
    try:
        for query in CASE.queries:
            service.subscribe(query)
        service.ingest(CASE.documents)
        service.checkpoint()
        snapshot = json.loads(json.dumps(service.snapshot()))
    finally:
        service.close()
    expected = by_hand(snapshot["engine"], in_process_twin(spec).build())
    sent = SentRequests(monkeypatch)
    recovered = MonitoringService.open(tmp_path)
    try:
        assert recovered.last_recovery.replayed_records == 0
        assert_seeded_like_by_hand(recovered.engine, expected, spec, sent)
    finally:
        recovered.close()


@pytest.mark.parametrize("kind", ["sharded", "sharded-proc"])
def test_a_shard_count_mismatch_fails_before_anything_is_restored(kind, monkeypatch):
    case = StreamCase(seed=3, num_queries=8, num_documents=30)
    source = ShardedEngine(num_shards=4, placement="round-robin")
    for query in case.queries:
        source.register_query(query)
    source.process_batch_events(case.documents)
    snapshot = snapshot_engine(source)
    engine = spec_of(kind, 2).build()
    sent = SentRequests(monkeypatch)
    try:
        with pytest.raises(ConfigurationError, match="on 4 shards.*has 2"):
            restore_into(snapshot, engine)
        assert len(engine.window) == 0
        assert engine.query_ids() == []
        assert [len(shard.window) for shard in engine.shards] == [0, 0]
        assert [shard.query_ids() for shard in engine.shards] == [[], []]
        assert "restore" not in sent.methods
    finally:
        getattr(engine, "close", lambda: None)()


@pytest.mark.parametrize("outside", ["document", "query"])
def test_a_proc_cluster_refuses_ids_outside_int64_before_seeding(outside, monkeypatch):
    snapshot = untagged_snapshot()
    if outside == "document":
        snapshot["documents"][0]["doc_id"] = 2**63
    else:
        snapshot["queries"][-1]["query_id"] = -(2**63) - 1
    engine = spec_of("sharded-proc", 2).build()
    sent = SentRequests(monkeypatch)
    try:
        with pytest.raises(DocumentError if outside == "document" else QueryError):
            restore_into(snapshot, engine)
        assert "restore" not in sent.methods
        assert len(engine.window) == 0 and engine.query_ids() == []
    finally:
        engine.close()


def test_a_cluster_is_restored_only_when_empty():
    cluster = spec_of("sharded", 2).build()
    cluster.register_query(CASE.queries[0])
    with pytest.raises(ConfigurationError, match="empty"):
        restore_into(untagged_snapshot(), cluster)
