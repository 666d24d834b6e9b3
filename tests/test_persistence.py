"""Tests for engine-state snapshot and restore."""

import gc
import json
import math
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


def test_a_restore_that_fails_after_the_engine_is_built_leaks_no_worker():
    service = populated_service(EngineSpec(window=WINDOWS["count"], **KINDS["sharded-proc"]))
    snapshot = service.snapshot()
    service.close()
    snapshot["queryscale"] = {"subscribers": {}}  # a spec without a queryscale block
    with pytest.raises(ConfigurationError, match="query-scale state"):
        MonitoringService.restore(snapshot)
    assert multiprocessing.active_children() == []


MALFORMED_RECORDS = [
    pytest.param(lambda s: s["documents"][3].pop("weights"), "documents record 3", id="no-weights"),
    pytest.param(lambda s: s["documents"][3]["weights"].update({"1": "x"}), "documents record 3", id="weight-x"),
    pytest.param(lambda s: s["documents"][3].update(doc_id="abc"), "documents record 3", id="doc-id-abc"),
    pytest.param(lambda s: s["queries"][1].pop("k"), "queries record 1", id="query-without-k"),
    pytest.param(lambda s: s.update(documents=5), "'documents' is int", id="documents-not-a-list"),
    pytest.param(lambda s: s.update(clock="abc"), "clock 'abc'", id="clock-abc"),
]


@pytest.mark.parametrize("restore", ["restore_into", "service"])
@pytest.mark.parametrize("breaking, names", MALFORMED_RECORDS)
def test_a_malformed_record_is_a_configuration_error_naming_it(breaking, names, restore):
    snapshot = json.loads(json.dumps(snapshot_engine(populated_ita())))
    breaking(snapshot)
    with pytest.raises(ConfigurationError, match=names):
        if restore == "service":
            MonitoringService.restore(snapshot)
        else:
            restore_into(snapshot, ITAEngine(CountBasedWindow(10)))
    assert gc.isenabled()


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


# --------------------------------------------------------------------------- #
# the recorded query state: a restore installs it instead of searching
# --------------------------------------------------------------------------- #
STATE_KINDS = ["ita-bisect", "ita-columnar", "sharded", "sharded-proc"]


def restored_from(service):
    """``restore_into(snapshot_engine(engine))`` through JSON, into a fresh
    engine of the same spec."""
    snapshot = json.loads(json.dumps(snapshot_engine(service.engine)))
    return restore_into(snapshot, service.spec.build())


@pytest.mark.parametrize("kind", STATE_KINDS)
def test_a_restore_installs_each_querys_recorded_state_without_a_descent(kind):
    """Thresholds, tau and R in rank order come back as recorded, on a
    tie-heavy tape, and installing the queries reads no posting."""
    case = StreamCase(seed=23, num_queries=9, num_documents=90)
    service = populated_service(EngineSpec(window=WINDOWS["count"], **KINDS[kind]), case=case)
    restored = restored_from(service)
    try:
        states = service.engine.query_states()
        assert len(states) == 6 and all(state["ids"] for state in states.values())
        assert restored.query_states() == states
        counters = restored.counters.as_dict()
        assert counters["postings_scanned"] == counters["scores_computed"] == 0
        assert restored.current_results() == service.engine.current_results()
        restored.check_invariants()
    finally:
        service.close()
        getattr(restored, "close", lambda: None)()


def test_the_state_is_the_engines_own_bookkeeping():
    engine = populated_ita()
    restored = restore_engine(json.loads(json.dumps(snapshot_engine(engine))))
    for query_id, state in engine._states.items():
        twin = restored.state_of(query_id)
        assert list(twin.thresholds.items()) == list(state.thresholds.items())
        assert twin.tau == state.tau
        assert list(twin.results) == list(state.results)
        for term_id, threshold in state.thresholds.items():
            assert restored.index.existing_tree(term_id).get(query_id) == threshold


def test_a_snapshot_without_state_still_runs_the_descent():
    service = populated_service(EngineSpec(window=WINDOWS["count"], **KINDS["ita-columnar"]))
    snapshot = snapshot_engine(service.engine)
    for record in snapshot["queries"]:
        del record["state"]
    restored = restore_into(snapshot, service.spec.build())
    assert restored.counters.scores_computed > 0
    assert restored.current_results() == service.engine.current_results()
    restored.check_invariants()


#: ``tests/data/service_snapshot_8c813d2.json`` is ``service.snapshot()``
#: after ``legacy_ops`` (``tests/durability/test_legacy_wal.py``) ran on
#: ``MonitoringService(legacy_spec())`` at ``8c813d2``, the last commit whose
#: snapshots record no query state.
STATELESS = Path(__file__).parent / "data" / "service_snapshot_8c813d2.json"


@pytest.mark.parametrize("kind", [None, "naive", "naive-kmax", "oracle"])
def test_a_snapshot_written_before_the_state_restores_to_the_same_top_k(kind):
    from tests.durability.test_legacy_wal import legacy_ops, legacy_spec

    legacy = json.loads(STATELESS.read_text())
    assert not any("state" in record for record in legacy["engine"]["queries"])
    expected = MonitoringService(legacy_spec())
    legacy_ops(expected)
    if kind is not None:
        legacy["spec"] = EngineSpec(kind=kind, window=WindowSpec.count(8)).to_dict()
    restored = MonitoringService.restore(legacy)
    assert list(restored.vocabulary) == list(expected.vocabulary)
    assert restored.results() == expected.results()


@pytest.mark.parametrize("kind", ["naive", "naive-kmax", "oracle"])
def test_a_baseline_ignores_the_recorded_state(kind):
    service = populated_service(EngineSpec(window=WINDOWS["count"], **KINDS["ita-columnar"]))
    snapshot = service.snapshot()
    assert all("state" in record for record in snapshot["engine"]["queries"])
    snapshot["spec"] = EngineSpec(kind=kind, window=WINDOWS["count"]).to_dict()
    restored = MonitoringService.restore(snapshot)
    assert restored.results() == service.results()
    assert not any("state" in record for record in restored.snapshot()["engine"]["queries"])


def first_ranked_pair(state):
    """The index of the first two R entries of distinct scores."""
    scores = state["scores"]
    return next(i for i in range(len(scores) - 1) if scores[i] != scores[i + 1])


def _more_thresholds(state):
    state["thresholds"].append(0.0)


def _swap_ranks(state):
    i = first_ranked_pair(state)
    for column in ("ids", "scores"):
        state[column][i], state[column][i + 1] = state[column][i + 1], state[column][i]


def _repeat_an_id(state):
    i = first_ranked_pair(state)
    state["ids"][i + 1] = state["ids"][i]


def _keep_an_expired_document(state):
    state["ids"][-1] = 10**6


BROKEN_STATES = [
    pytest.param(_more_thresholds, "thresholds for", id="threshold-count"),
    pytest.param(lambda state: state.update(tau=math.nan), "non-finite tau", id="tau-nan"),
    pytest.param(lambda state: state.update(tau=math.inf), "non-finite tau", id="tau-inf"),
    pytest.param(lambda state: state.update(tau=-0.5), "negative or non-finite tau", id="tau-negative"),
    pytest.param(lambda state: state["thresholds"].__setitem__(0, -1e-9), "threshold", id="threshold-negative"),
    pytest.param(lambda state: state["thresholds"].__setitem__(0, math.inf), "threshold", id="threshold-inf"),
    pytest.param(_swap_ranks, "out of rank order", id="rank-order"),
    pytest.param(_repeat_an_id, "repeats a document", id="repeated-id"),
    pytest.param(_keep_an_expired_document, "document 1000000 in R, which is not in the window", id="not-in-window"),
]


@pytest.mark.parametrize("kind", ["ita-bisect", "sharded"])
@pytest.mark.parametrize("breaking, message", BROKEN_STATES)
def test_a_state_the_query_cannot_be_in_is_refused_naming_the_query(kind, breaking, message):
    service = populated_service(EngineSpec(window=WINDOWS["count"], **KINDS[kind]))
    snapshot = service.snapshot()
    record = snapshot["engine"]["queries"][2]
    breaking(record["state"])
    with pytest.raises(ConfigurationError, match=f"query {record['query_id']}: the recorded state .*{message}"):
        MonitoringService.restore(snapshot)
    assert gc.isenabled()


def test_a_malformed_state_is_refused_naming_the_query():
    snapshot = snapshot_engine(populated_ita())
    del snapshot["queries"][1]["state"]["tau"]
    with pytest.raises(ConfigurationError, match="query 1: malformed recorded state"):
        restore_engine(snapshot)


class _Spy(ITAEngine):
    """Records whether the cyclic collector ran while queries were installed."""

    collector = []

    def install_query(self, query, record):
        self.collector.append(gc.isenabled())
        super().install_query(query, record)


@pytest.mark.parametrize("enabled", [True, False])
def test_the_load_pauses_the_collector_and_restores_the_callers_setting(enabled):
    snapshot = snapshot_engine(populated_ita())
    _Spy.collector = []
    (gc.enable if enabled else gc.disable)()
    try:
        restore_into(snapshot, _Spy(CountBasedWindow(10)))
        assert gc.isenabled() is enabled
        snapshot["queries"][0]["state"]["tau"] = -1.0
        with pytest.raises(ConfigurationError):
            restore_into(snapshot, _Spy(CountBasedWindow(10)))
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert _Spy.collector == [False, False, False]
