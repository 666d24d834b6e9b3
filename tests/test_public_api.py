"""Tests of the top-level public API surface."""

import pytest

import repro


class TestPublicAPI:
    def test_version_exposed(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing public name {name}"

    def test_engines_share_the_monitoring_interface(self):
        from repro import (
            ITAEngine,
            KMaxNaiveEngine,
            MonitoringEngine,
            NaiveEngine,
            OracleEngine,
            ShardedEngine,
        )

        for engine_class in (ITAEngine, NaiveEngine, KMaxNaiveEngine, OracleEngine, ShardedEngine):
            assert issubclass(engine_class, MonitoringEngine)

    def test_cluster_subsystem_exported(self):
        from repro import (
            CostModelPlacement,
            HashPlacement,
            PlacementPolicy,
            ResultMerger,
            RoundRobinPlacement,
            ShardedEngine,
            restore_into,
            snapshot_engine,
        )

        for policy_class in (RoundRobinPlacement, HashPlacement, CostModelPlacement):
            assert issubclass(policy_class, PlacementPolicy)
        assert callable(snapshot_engine) and callable(restore_into)
        assert hasattr(ResultMerger, "merge_changes")
        assert ShardedEngine.name == "sharded"

    def test_sharded_quickstart_flow(self):
        """The README sharded-cluster quickstart must keep working."""
        from repro import (
            Analyzer,
            ContinuousQuery,
            CountBasedWindow,
            DocumentStream,
            FixedRateArrivalProcess,
            InMemoryCorpus,
            ITAEngine,
            ShardedEngine,
            Vocabulary,
            restore_into,
            snapshot_engine,
        )

        analyzer, vocabulary = Analyzer(), Vocabulary()
        corpus = InMemoryCorpus(
            ["breaking news about markets", "weather update for tomorrow"],
            analyzer=analyzer,
            vocabulary=vocabulary,
        )
        def make_cluster():
            return ShardedEngine(
                num_shards=2,
                shard_factory=lambda: ITAEngine(CountBasedWindow(100)),
                placement="cost",
            )

        cluster = make_cluster()
        single = ITAEngine(CountBasedWindow(100))
        query = ContinuousQuery.from_text(
            0, "market news", k=1, analyzer=analyzer, vocabulary=vocabulary
        )
        cluster.register_query(query)
        single.register_query(query)
        stream = list(DocumentStream(corpus, FixedRateArrivalProcess(rate=1.0)))
        cluster.process_many(stream)
        single.process_many(stream)
        assert cluster.current_result(0) == single.current_result(0)
        restored = restore_into(snapshot_engine(cluster), make_cluster())
        assert restored.current_result(0) == cluster.current_result(0)

    def test_service_facade_exported(self):
        from repro import (
            EngineSpec,
            MonitoringService,
            PlacementCalibration,
            QueryHandle,
            WindowSpec,
            engine_kinds,
            register_engine_kind,
        )

        assert callable(register_engine_kind)
        assert {"ita", "naive", "naive-kmax", "oracle", "sharded"} <= set(engine_kinds())
        assert hasattr(MonitoringService, "subscribe")
        assert hasattr(QueryHandle, "unsubscribe")
        assert EngineSpec().kind == "ita"
        assert WindowSpec.count(10).size == 10
        assert PlacementCalibration().dictionary_size > 0

    def test_service_quickstart_flow(self):
        """The README / module-docstring façade quickstart must keep working."""
        from repro import MonitoringService

        with MonitoringService() as service:
            handle = service.subscribe("market news", k=1)
            service.ingest(
                ["breaking news about markets", "weather update for tomorrow"]
            )
            assert [entry.doc_id for entry in handle.result()] == [0]

    def test_quickstart_flow(self):
        """The README / module-docstring quickstart must keep working."""
        from repro import (
            Analyzer,
            ContinuousQuery,
            CountBasedWindow,
            DocumentStream,
            FixedRateArrivalProcess,
            InMemoryCorpus,
            ITAEngine,
            Vocabulary,
        )

        analyzer, vocabulary = Analyzer(), Vocabulary()
        corpus = InMemoryCorpus(
            ["breaking news about markets", "weather update for tomorrow"],
            analyzer=analyzer,
            vocabulary=vocabulary,
        )
        engine = ITAEngine(CountBasedWindow(100))
        query = ContinuousQuery.from_text(
            0, "market news", k=1, analyzer=analyzer, vocabulary=vocabulary
        )
        engine.register_query(query)
        stream = DocumentStream(corpus, FixedRateArrivalProcess(rate=1.0))
        engine.process_many(stream)
        assert [entry.doc_id for entry in engine.current_result(0)] == [0]

    def test_exceptions_derive_from_reproerror(self):
        from repro.exceptions import (
            ConfigurationError,
            DocumentError,
            QueryError,
            ReproError,
            StreamError,
            WindowError,
        )

        for exc in (ConfigurationError, DocumentError, QueryError, StreamError, WindowError):
            assert issubclass(exc, ReproError)
