"""Tests for the typed engine specifications and the kind registry."""

import pytest

from repro.baselines.kmax import (
    AdaptiveKMaxPolicy,
    AnalyticalKMaxPolicy,
    FixedKMaxPolicy,
    KMaxNaiveEngine,
)
from repro.baselines.naive import NaiveEngine
from repro.baselines.oracle import OracleEngine
from repro.cluster.engine import ShardedEngine
from repro.cluster.placement import CostModelPlacement, RoundRobinPlacement
from repro.core.descent import ProbeOrder
from repro.core.engine import ITAEngine
from repro.documents.window import CountBasedWindow, TimeBasedWindow
from repro.exceptions import ConfigurationError, ExperimentError, UnknownEngineError
from repro.service.spec import (
    EngineSpec,
    PlacementCalibration,
    WindowSpec,
    engine_kinds,
    register_engine_kind,
    spec_from_name,
)

from tests.conftest import make_document, make_query


#: one representative spec per registered builtin kind
REPRESENTATIVE_SPECS = {
    "ita": EngineSpec(
        kind="ita",
        window=WindowSpec.count(25),
        enable_rollup=False,
        probe_order=ProbeOrder.ROUND_ROBIN.value,
    ),
    "naive": EngineSpec(kind="naive", window=WindowSpec.count(25)),
    "naive-kmax": EngineSpec(
        kind="naive-kmax", window=WindowSpec.count(25), kmax_multiplier=3.0
    ),
    "oracle": EngineSpec(kind="oracle", window=WindowSpec.count(25)),
    "sharded": EngineSpec(
        kind="sharded",
        window=WindowSpec.count(25),
        num_shards=3,
        placement="round-robin",
        inner=EngineSpec(kind="naive", window=WindowSpec.count(25)),
        calibration=PlacementCalibration(dictionary_size=500, window_size=25),
    ),
}

EXPECTED_TYPES = {
    "ita": ITAEngine,
    "naive": NaiveEngine,
    "naive-kmax": KMaxNaiveEngine,
    "oracle": OracleEngine,
    "sharded": ShardedEngine,
}


def drive(engine, seed=3, documents=40):
    """Feed a deterministic little stream + queries; return final results."""
    queries = [make_query(0, {1: 1.0, 2: 0.5}, k=2), make_query(1, {3: 0.9}, k=1)]
    for query in queries:
        engine.register_query(query)
    clock = 0.0
    for doc_id in range(documents):
        clock += 1.0
        weights = {1 + (doc_id % 4): 0.1 + (doc_id % 7) * 0.1}
        engine.process(make_document(doc_id, weights, arrival_time=clock))
    return {
        query.query_id: [
            (entry.doc_id, round(entry.score, 9))
            for entry in engine.current_result(query.query_id)
        ]
        for query in queries
    }


class TestWindowSpec:
    def test_count_build(self):
        window = WindowSpec.count(42).build()
        assert isinstance(window, CountBasedWindow)
        assert window.size == 42

    def test_time_build(self):
        window = WindowSpec.time(7.5).build()
        assert isinstance(window, TimeBasedWindow)
        assert window.span == 7.5

    def test_round_trip_matches_persistence_encoding(self):
        spec = WindowSpec.count(10)
        assert spec.to_dict() == {"type": "count", "size": 10}
        assert WindowSpec.from_dict(spec.to_dict()) == spec
        spec = WindowSpec.time(3.0)
        assert spec.to_dict() == {"type": "time", "span": 3.0}
        assert WindowSpec.from_dict(spec.to_dict()) == spec

    def test_of_existing_window(self):
        assert WindowSpec.of(CountBasedWindow(9)) == WindowSpec.count(9)
        assert WindowSpec.of(TimeBasedWindow(2.0)) == WindowSpec.time(2.0)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            WindowSpec(kind="banana").validate()
        with pytest.raises(ConfigurationError):
            WindowSpec.count(0).build()


class TestEngineSpecBuild:
    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVE_SPECS))
    def test_every_registered_kind_is_constructible(self, kind):
        engine = REPRESENTATIVE_SPECS[kind].build()
        assert isinstance(engine, EXPECTED_TYPES[kind])

    def test_builtin_kinds_registered(self):
        assert set(engine_kinds()) >= {"ita", "naive", "naive-kmax", "oracle", "sharded"}

    def test_ita_knobs_applied(self):
        engine = REPRESENTATIVE_SPECS["ita"].build()
        assert engine.enable_rollup is False
        assert engine.probe_order is ProbeOrder.ROUND_ROBIN
        assert engine.track_changes is True
        assert isinstance(engine.window, CountBasedWindow) and engine.window.size == 25

    def test_track_changes_forwarded(self):
        engine = EngineSpec(kind="ita", track_changes=False).build()
        assert engine.track_changes is False

    def test_kmax_policies(self):
        fixed = REPRESENTATIVE_SPECS["naive-kmax"].build()
        assert isinstance(fixed.policy, FixedKMaxPolicy)
        assert fixed.policy.multiplier == 3.0
        adaptive = EngineSpec(kind="naive-kmax", kmax_policy="adaptive").build()
        assert isinstance(adaptive.policy, AdaptiveKMaxPolicy)
        analytical = EngineSpec(
            kind="naive-kmax", kmax_policy="analytical", window=WindowSpec.count(64)
        ).build()
        assert isinstance(analytical.policy, AnalyticalKMaxPolicy)
        assert analytical.policy.window_size == 64

    def test_sharded_spec(self):
        cluster = REPRESENTATIVE_SPECS["sharded"].build()
        assert cluster.num_shards == 3
        assert isinstance(cluster.placement, RoundRobinPlacement)
        assert all(isinstance(shard, NaiveEngine) for shard in cluster.shards)

    def test_sharded_cost_calibration(self):
        spec = EngineSpec(
            kind="sharded",
            num_shards=2,
            window=WindowSpec.count(25),
            calibration=PlacementCalibration(dictionary_size=123, window_size=25),
        )
        cluster = spec.build()
        assert isinstance(cluster.placement, CostModelPlacement)
        assert cluster.placement.dictionary_size == 123
        assert cluster.placement.window_size == 25

    def test_sharded_default_inner_is_ita(self):
        cluster = EngineSpec(kind="sharded", window=WindowSpec.count(10)).build()
        assert all(isinstance(shard, ITAEngine) for shard in cluster.shards)


class TestEngineSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(UnknownEngineError):
            EngineSpec(kind="warp").build()

    def test_unknown_kind_is_both_configuration_and_experiment_error(self):
        with pytest.raises(ConfigurationError):
            EngineSpec(kind="warp").validate()
        with pytest.raises(ExperimentError):
            EngineSpec(kind="warp").validate()

    def test_invalid_probe_order(self):
        with pytest.raises(ConfigurationError):
            EngineSpec(probe_order="sideways").validate()

    def test_invalid_kmax(self):
        with pytest.raises(ConfigurationError):
            EngineSpec(kmax_policy="magic").validate()
        with pytest.raises(ConfigurationError):
            EngineSpec(kmax_multiplier=0.5).validate()

    def test_analytical_kmax_needs_count_window(self):
        with pytest.raises(ConfigurationError, match="count-based"):
            EngineSpec(
                kind="naive-kmax",
                kmax_policy="analytical",
                window=WindowSpec.time(5.0),
            ).validate()
        # adaptive is the documented alternative for time-based windows
        EngineSpec(
            kind="naive-kmax", kmax_policy="adaptive", window=WindowSpec.time(5.0)
        ).validate()

    def test_invalid_sharding(self):
        with pytest.raises(ConfigurationError):
            EngineSpec(kind="sharded", num_shards=0).validate()
        with pytest.raises(ConfigurationError):
            EngineSpec(kind="sharded", placement="everywhere").validate()
        with pytest.raises(ConfigurationError):
            EngineSpec(kind="ita", inner=EngineSpec(kind="naive")).validate()
        with pytest.raises(ConfigurationError):
            EngineSpec(kind="sharded", inner=EngineSpec(kind="sharded")).validate()

    def test_inconsistent_inner_spec_rejected(self):
        """A mismatching inner spec must fail loudly, not be silently ignored."""
        with pytest.raises(ConfigurationError, match="track_changes"):
            EngineSpec(
                kind="sharded",
                track_changes=True,
                inner=EngineSpec(kind="ita", track_changes=False),
            ).validate()
        with pytest.raises(ConfigurationError, match="window"):
            EngineSpec(
                kind="sharded",
                window=WindowSpec.count(25),
                inner=EngineSpec(kind="ita", window=WindowSpec.count(50)),
            ).validate()


class TestEngineSpecRoundTrip:
    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVE_SPECS))
    def test_dict_round_trip_is_identity(self, kind):
        spec = REPRESENTATIVE_SPECS[kind]
        assert EngineSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVE_SPECS))
    def test_round_tripped_spec_builds_equivalent_engine(self, kind):
        """from_dict(to_dict(spec)) must rebuild an engine that reports the
        same results as the original on the same stream."""
        spec = REPRESENTATIVE_SPECS[kind]
        original = drive(spec.build())
        rebuilt = drive(EngineSpec.from_dict(spec.to_dict()).build())
        assert rebuilt == original

    def test_round_trip_survives_json(self):
        import json

        spec = REPRESENTATIVE_SPECS["sharded"]
        assert EngineSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_from_dict_defaults_missing_keys(self):
        spec = EngineSpec.from_dict({"kind": "naive"})
        assert spec == EngineSpec(kind="naive")


class TestSpecFromName:
    def test_single_engine_aliases(self):
        assert spec_from_name("ita").kind == "ita"
        assert spec_from_name("ita-no-rollup").enable_rollup is False
        assert spec_from_name("ita-round-robin").probe_order == ProbeOrder.ROUND_ROBIN.value
        assert spec_from_name("naive").kind == "naive"
        assert spec_from_name("oracle").kind == "oracle"
        spec = spec_from_name("naive-kmax", options={"kmax_multiplier": 4.0})
        assert spec.kind == "naive-kmax" and spec.kmax_multiplier == 4.0

    def test_sharded_names(self):
        spec = spec_from_name("sharded-ita-4")
        assert spec.kind == "sharded" and spec.num_shards == 4
        assert spec.inner.kind == "ita"
        spec = spec_from_name("sharded-naive", options={"num_shards": 3})
        assert spec.num_shards == 3 and spec.inner.kind == "naive"
        assert spec_from_name("sharded").inner.kind == "ita"

    def test_unknown_names(self):
        with pytest.raises(UnknownEngineError):
            spec_from_name("magic")
        with pytest.raises(UnknownEngineError):
            spec_from_name("sharded-magic-2")


class TestRegistry:
    def test_custom_kind_registers_and_builds(self):
        class TaggedNaive(NaiveEngine):
            name = "tagged"

        register_engine_kind(
            "tagged-naive",
            lambda spec: TaggedNaive(spec.window.build(), track_changes=spec.track_changes),
            description="test-only kind",
        )
        try:
            engine = EngineSpec(kind="tagged-naive", window=WindowSpec.count(5)).build()
            assert isinstance(engine, TaggedNaive)
            assert "tagged-naive" in engine_kinds()
        finally:
            from repro.service import spec as spec_module

            spec_module._KINDS.pop("tagged-naive", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_engine_kind("ita", lambda spec: None)


class TestStorageField:
    def test_default_is_columnar(self):
        spec = EngineSpec(kind="ita", window=WindowSpec.count(10))
        assert spec.storage == "columnar"
        assert spec.build().index.backend.name == "columnar"

    def test_bisect_stays_selectable(self):
        spec = EngineSpec(kind="ita", window=WindowSpec.count(10), storage="bisect")
        assert spec.build().index.backend.name == "bisect"

    def test_unknown_storage_rejected(self):
        with pytest.raises(ConfigurationError, match="storage backend"):
            EngineSpec(
                kind="ita", window=WindowSpec.count(10), storage="flat-file"
            ).validate()

    def test_round_trips_through_dict(self):
        spec = EngineSpec(kind="ita", window=WindowSpec.count(10), storage="columnar")
        data = spec.to_dict()
        assert data["storage"] == "columnar"
        assert EngineSpec.from_dict(data) == spec
        # absent key falls back to the default: storage is a restore-time
        # choice, so a snapshot predating the field restores as columnar
        data.pop("storage")
        assert EngineSpec.from_dict(data).storage == "columnar"

    def test_with_overrides_switches_backend_only(self):
        spec = EngineSpec(kind="ita", window=WindowSpec.count(10))
        overridden = spec.with_overrides(storage="bisect")
        assert overridden.storage == "bisect"
        assert overridden == EngineSpec(
            kind="ita", window=WindowSpec.count(10), storage="bisect"
        )
        assert spec.storage == "columnar"  # the original is untouched

    def test_named_columnar_alias(self):
        spec = spec_from_name("ita-columnar")
        assert spec.kind == "ita"
        assert spec.storage == "columnar"

    def test_harness_names_mean_the_reference_engine(self):
        """A legacy name resolves to "bisect", not to DEFAULT_STORAGE: the
        figure harness keys its cells by these names."""
        assert spec_from_name("ita").storage == "bisect"
        assert spec_from_name("ita-no-rollup").storage == "bisect"
        for name in ("sharded", "sharded-ita-2", "sharded-proc-2"):
            spec = spec_from_name(name)
            assert spec.storage == "bisect"
            assert spec.shard_spec().storage == "bisect"

    def test_spec_from_name_storage_option(self):
        spec = spec_from_name("ita", options={"storage": "columnar"})
        assert spec.storage == "columnar"
        # cluster names route the option to the inner spec the shards use
        sharded = spec_from_name("sharded-ita-2", options={"storage": "columnar"})
        assert sharded.shard_spec().storage == "columnar"

    def test_cluster_specs_propagate_storage_to_shards(self):
        for kind in ("sharded", "sharded-proc"):
            spec = EngineSpec(
                kind=kind,
                window=WindowSpec.count(10),
                num_shards=2,
                storage="columnar",
            )
            assert spec.shard_spec().storage == "columnar"
