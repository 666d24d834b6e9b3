"""Tests for engine-state snapshot and restore."""

import json
import multiprocessing
from pathlib import Path

import pytest

from repro.baselines.naive import NaiveEngine
from repro.cluster.engine import ShardedEngine
from repro.core.descent import ProbeOrder
from repro.core.engine import ITAEngine
from repro.documents.window import CountBasedWindow, TimeBasedWindow
from repro.exceptions import ConfigurationError
from repro.persistence import restore_engine, restore_into, snapshot_engine
from repro.service import EngineSpec, MonitoringService, WindowSpec
from repro.service.service import _implied_spec
from tests.conftest import (
    StreamCase,
    TieFreeCase,
    assert_same_topk,
    make_document,
    make_query,
)


def populated_ita(window_size=10, num_documents=40):
    engine = ITAEngine(CountBasedWindow(window_size))
    engine.register_query(make_query(0, {1: 0.5, 2: 0.5}, k=3))
    engine.register_query(make_query(1, {3: 1.0}, k=2))
    import random

    rng = random.Random(5)
    for doc_id in range(num_documents):
        weights = {t: round(rng.uniform(0.1, 1.0), 3) for t in rng.sample(range(5), rng.randint(1, 3))}
        engine.process(make_document(doc_id, weights, arrival_time=float(doc_id)))
    return engine


class TestSnapshotFormat:
    def test_snapshot_is_json_serialisable(self):
        snapshot = snapshot_engine(populated_ita())
        text = json.dumps(snapshot)
        assert json.loads(text)["version"] == 1

    def test_snapshot_captures_window_and_queries(self):
        snapshot = snapshot_engine(populated_ita(window_size=7))
        assert snapshot["window"] == {"type": "count", "size": 7}
        assert len(snapshot["queries"]) == 2

    def test_snapshot_only_holds_valid_documents(self):
        engine = populated_ita(window_size=5, num_documents=40)
        snapshot = snapshot_engine(engine)
        assert len(snapshot["documents"]) == 5

    def test_time_based_window_snapshot(self):
        engine = ITAEngine(TimeBasedWindow(span=10.0))
        engine.register_query(make_query(0, {1: 1.0}, k=1))
        engine.process(make_document(0, {1: 0.5}, arrival_time=0.0))
        snapshot = snapshot_engine(engine)
        assert snapshot["window"] == {"type": "time", "span": 10.0}


class TestRestore:
    def test_roundtrip_preserves_results(self):
        original = populated_ita()
        snapshot = snapshot_engine(original)
        restored = restore_engine(snapshot)
        for query_id in original.query_ids():
            assert_same_topk(
                original.current_result(query_id),
                restored.current_result(query_id),
                context=f"(query {query_id})",
            )
        restored.check_invariants()

    def test_restore_into_a_baseline_engine(self):
        original = populated_ita()
        snapshot = snapshot_engine(original)
        restored = restore_into(snapshot, NaiveEngine(CountBasedWindow(10)))
        assert isinstance(restored, NaiveEngine)
        for query_id in original.query_ids():
            assert_same_topk(
                original.current_result(query_id),
                restored.current_result(query_id),
            )

    def test_restored_engine_continues_streaming(self):
        original = populated_ita(window_size=10)
        restored = restore_engine(snapshot_engine(original))
        # Feed more documents into both; they must stay in agreement.
        for doc_id in range(100, 120):
            document = make_document(doc_id, {1: 0.4, 2: 0.6}, arrival_time=float(doc_id))
            original.process(document)
            restored.process(document)
        for query_id in original.query_ids():
            assert_same_topk(
                original.current_result(query_id),
                restored.current_result(query_id),
            )

    def test_unsupported_version_rejected(self):
        snapshot = snapshot_engine(populated_ita())
        snapshot["version"] = 99
        with pytest.raises(ConfigurationError):
            restore_engine(snapshot)

    def test_unknown_window_type_rejected(self):
        snapshot = snapshot_engine(populated_ita())
        snapshot["window"] = {"type": "sliding-sideways"}
        with pytest.raises(ConfigurationError):
            restore_engine(snapshot)

    def test_snapshot_of_empty_engine(self):
        engine = ITAEngine(CountBasedWindow(5))
        engine.register_query(make_query(0, {1: 1.0}, k=2))
        restored = restore_engine(snapshot_engine(engine))
        assert restored.current_result(0) == []


class TestConfigRoundTrip:
    """The engine construction knobs must survive a snapshot round-trip."""

    def test_ita_defaults_preserved(self):
        restored = restore_engine(snapshot_engine(populated_ita()))
        assert isinstance(restored, ITAEngine)
        assert restored.probe_order is ProbeOrder.WEIGHTED
        assert restored.enable_rollup is True
        assert restored.track_changes is True

    def test_non_default_ita_config_preserved(self):
        engine = ITAEngine(
            CountBasedWindow(8),
            track_changes=False,
            enable_rollup=False,
            probe_order=ProbeOrder.ROUND_ROBIN,
        )
        engine.register_query(make_query(0, {1: 0.5, 2: 0.5}, k=2))
        for doc_id in range(12):
            engine.process(make_document(doc_id, {1: 0.4, 2: 0.3}, arrival_time=float(doc_id)))

        snapshot = snapshot_engine(engine)
        assert snapshot["config"] == {
            "probe_order": "round_robin",
            "enable_rollup": False,
            "track_changes": False,
            "storage": "bisect",
        }
        restored = restore_engine(snapshot)
        assert restored.probe_order is ProbeOrder.ROUND_ROBIN
        assert restored.enable_rollup is False
        assert restored.track_changes is False
        assert restored.index.backend.name == "bisect"
        for query_id in engine.query_ids():
            assert_same_topk(
                engine.current_result(query_id), restored.current_result(query_id)
            )

    def test_window_type_preserved(self):
        engine = ITAEngine(TimeBasedWindow(span=7.5))
        engine.register_query(make_query(0, {1: 1.0}, k=1))
        engine.process(make_document(0, {1: 0.5}, arrival_time=0.0))
        restored = restore_engine(snapshot_engine(engine))
        assert isinstance(restored.window, TimeBasedWindow)
        assert restored.window.span == 7.5

    def test_a_prebuilt_target_overrides_snapshotted_config(self):
        engine = ITAEngine(CountBasedWindow(5), probe_order=ProbeOrder.ROUND_ROBIN)
        engine.register_query(make_query(0, {1: 1.0}, k=1))
        restored = restore_into(snapshot_engine(engine), ITAEngine(CountBasedWindow(5)))
        assert restored.probe_order is ProbeOrder.WEIGHTED

    def test_config_free_snapshot_restores_with_defaults(self):
        snapshot = snapshot_engine(populated_ita())
        del snapshot["config"]
        restored = restore_engine(snapshot)
        assert restored.probe_order is ProbeOrder.WEIGHTED
        assert restored.enable_rollup is True


# --------------------------------------------------------------------------- #
# one format, one loader: every kind through the service round trip
# --------------------------------------------------------------------------- #
KINDS = {
    "ita-bisect": {"kind": "ita", "storage": "bisect"},
    "ita-columnar": {"kind": "ita", "storage": "columnar"},
    "naive": {"kind": "naive"},
    "naive-kmax": {"kind": "naive-kmax"},
    "sharded": {"kind": "sharded", "num_shards": 4},
    "sharded-proc": {"kind": "sharded-proc", "num_shards": 2},
}
WINDOWS = {"count": WindowSpec.count(40), "time": WindowSpec.time(15.0)}


def populated_service(spec, case=None, unsubscribed=(1, 4, 6)):
    """Subscribes, a few unsubscribes (so the placement is not the one a
    fresh policy would choose for the survivors), then the stream."""
    case = case or TieFreeCase(seed=71, num_queries=9, num_documents=90)
    service = MonitoringService(spec)
    for query in case.queries:
        service.subscribe(query)
    for query_id in unsubscribed:
        service.unsubscribe(query_id)
    service.ingest(case.documents)
    return service


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_service_round_trip_is_a_fixed_point(kind, window):
    service = populated_service(EngineSpec(window=WINDOWS[window], **KINDS[kind]))
    restored = MonitoringService.restore(json.loads(json.dumps(service.snapshot())))
    try:
        assert restored.results() == service.results()
        assert restored.window.clock == service.window.clock
        if hasattr(service.engine, "assignment"):
            assert restored.engine.assignment() == service.engine.assignment()
        assert restored.snapshot() == service.snapshot()
    finally:
        service.close()
        restored.close()


def test_sharded_snapshot_holds_its_window_once():
    sizes = {}
    for kind in ("ita-columnar", "sharded"):
        service = populated_service(EngineSpec(window=WINDOWS["count"], **KINDS[kind]))
        sizes[kind] = len(json.dumps(service.snapshot()))
    assert sizes["sharded"] <= 1.1 * sizes["ita-columnar"]


def test_legacy_cluster_document_restores_like_its_flat_equivalent():
    """The per-shard ``"kind": "cluster"`` format written at ``2b24abf``
    (a durability directory may still hold one) folds to the flat form."""
    path = Path(__file__).parent / "data" / "cluster_snapshot_2b24abf.json"
    legacy = json.loads(path.read_text())
    assert legacy["engine"]["kind"] == "cluster"
    # The fixture's script, re-run here: its flat equivalent.
    service = populated_service(
        EngineSpec.from_dict(legacy["spec"]),
        case=StreamCase(seed=19, num_queries=5, num_documents=9),
        unsubscribed=(1,),
    )
    flat = MonitoringService.restore(service.snapshot())
    for snapshot in (legacy, legacy["engine"]):  # enveloped, and bare (implied spec)
        restored = MonitoringService.restore(snapshot)
        assert restored.results() == flat.results()
        assert restored.engine.assignment() == flat.engine.assignment() == {0: 0, 2: 0, 3: 1, 4: 0}


def test_recorded_shard_beyond_the_target_is_rejected_without_leaking_workers():
    service = populated_service(EngineSpec(window=WINDOWS["count"], **KINDS["sharded-proc"]))
    snapshot = service.snapshot()
    service.close()
    snapshot["engine"]["queries"][-1]["shard"] = 2
    with pytest.raises(ConfigurationError):
        MonitoringService.restore(snapshot)
    assert multiprocessing.active_children() == []


class TestHandWiredCluster:
    """A cluster built without a spec: the bare snapshot implies one."""

    def test_shard_config_and_window_kind_survive(self):
        cluster = ShardedEngine(
            num_shards=2,
            shard_factory=lambda: ITAEngine(
                TimeBasedWindow(span=12.0), enable_rollup=False, probe_order=ProbeOrder.ROUND_ROBIN
            ),
            placement="round-robin",
        )
        cluster.register_query(make_query(0, {1: 1.0}, k=1))
        snapshot = snapshot_engine(cluster)
        assert snapshot["config"]["probe_order"] == "round_robin"
        restored = MonitoringService.restore(snapshot).engine
        assert all(s.probe_order is ProbeOrder.ROUND_ROBIN for s in restored.shards)
        assert all(s.enable_rollup is False for s in restored.shards)
        assert all(isinstance(s.window, TimeBasedWindow) for s in restored.shards)
        assert restored.window.span == 12.0

    def test_track_changes_survives(self):
        """The restored cluster must not falsely advertise change tracking."""
        quiet = ShardedEngine(
            num_shards=2,
            shard_factory=lambda: ITAEngine(CountBasedWindow(6), track_changes=False),
            track_changes=False,
        )
        quiet.register_query(make_query(0, {1: 1.0}, k=1))
        quiet.process(make_document(0, {1: 0.5}, arrival_time=1.0))
        # (the service itself refuses an engine that tracks no changes)
        snapshot = snapshot_engine(quiet)
        restored = restore_into(snapshot, _implied_spec(snapshot).build())
        assert restored.track_changes is False
        assert all(shard.track_changes is False for shard in restored.shards)
        assert restored.process(make_document(9, {1: 0.9}, arrival_time=9.0)) == []

    def test_empty_cluster_round_trip(self):
        cluster = ShardedEngine(num_shards=2, shard_factory=lambda: ITAEngine(CountBasedWindow(5)))
        cluster.register_query(make_query(0, {1: 1.0}, k=2))
        restored = MonitoringService.restore(snapshot_engine(cluster)).engine
        assert restored.current_result(0) == []
        assert restored.shard_of(0) == cluster.shard_of(0)

    def test_cluster_collapses_into_a_single_engine(self):
        cluster = ShardedEngine(num_shards=3, shard_factory=lambda: ITAEngine(CountBasedWindow(9)))
        case = StreamCase(seed=19, num_documents=70)
        for query in case.queries:
            cluster.register_query(query)
        cluster.process_many(case.documents)
        single = restore_engine(snapshot_engine(cluster))
        assert isinstance(single, ITAEngine)
        assert sorted(single.query_ids()) == sorted(cluster.query_ids())
        assert single.current_results() == cluster.current_results()

    def test_shard_count_mismatch_rejected(self):
        cluster = ShardedEngine(num_shards=3, placement="round-robin")
        for query_id in range(3):
            cluster.register_query(make_query(query_id, {1: 1.0}))
        with pytest.raises(ConfigurationError):
            restore_into(snapshot_engine(cluster), ShardedEngine(num_shards=2))
