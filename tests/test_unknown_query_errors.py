"""Unknown-query handling must be uniform across every engine.

The engines are interchangeable behind the :class:`MonitoringEngine`
interface, so an unknown query id must raise the same library exception
(:class:`~repro.exceptions.UnknownQueryError`, never a bare ``KeyError``)
from every implementation, and duplicate registration must raise
:class:`~repro.exceptions.DuplicateQueryError` everywhere.
"""

import pytest

from repro.baselines.kmax import KMaxNaiveEngine
from repro.baselines.naive import NaiveEngine
from repro.baselines.oracle import OracleEngine
from repro.cluster.engine import ShardedEngine
from repro.core.engine import ITAEngine
from repro.documents.window import CountBasedWindow
from repro.exceptions import DuplicateQueryError, QueryError, ReproError, UnknownQueryError

from tests.conftest import make_document, make_query


ENGINE_FACTORIES = {
    "ita": lambda: ITAEngine(CountBasedWindow(10)),
    "naive": lambda: NaiveEngine(CountBasedWindow(10)),
    "naive-kmax": lambda: KMaxNaiveEngine(CountBasedWindow(10)),
    "oracle": lambda: OracleEngine(CountBasedWindow(10)),
    "sharded": lambda: ShardedEngine(
        num_shards=2, shard_factory=lambda: ITAEngine(CountBasedWindow(10))
    ),
}


@pytest.fixture(params=sorted(ENGINE_FACTORIES), ids=sorted(ENGINE_FACTORIES))
def engine(request):
    return ENGINE_FACTORIES[request.param]()


class TestUnknownQueryUniformity:
    def test_current_result_of_unknown_query(self, engine):
        with pytest.raises(UnknownQueryError):
            engine.current_result(99)

    def test_unregister_unknown_query(self, engine):
        with pytest.raises(UnknownQueryError):
            engine.unregister_query(99)

    def test_duplicate_registration(self, engine):
        engine.register_query(make_query(0, {1: 1.0}))
        with pytest.raises(DuplicateQueryError):
            engine.register_query(make_query(0, {2: 1.0}))

    def test_unknown_after_unregister(self, engine):
        engine.register_query(make_query(0, {1: 1.0}))
        engine.process(make_document(0, {1: 0.5}))
        engine.unregister_query(0)
        with pytest.raises(UnknownQueryError):
            engine.current_result(0)
        with pytest.raises(UnknownQueryError):
            engine.unregister_query(0)

    def test_errors_are_catchable_as_reproerror(self, engine):
        """One except clause suffices for callers: the hierarchy is shared."""
        with pytest.raises((QueryError, ReproError)):
            engine.current_result(123)
        assert issubclass(UnknownQueryError, QueryError)
        assert issubclass(QueryError, ReproError)


class TestEngineSpecificAccessors:
    """The engine-specific lookups follow the same contract."""

    def test_ita_state_of_unknown(self):
        with pytest.raises(UnknownQueryError):
            ITAEngine(CountBasedWindow(10)).state_of(7)

    def test_naive_result_list_unknown(self):
        with pytest.raises(UnknownQueryError):
            NaiveEngine(CountBasedWindow(10)).result_list(7)

    def test_sharded_shard_of_unknown(self):
        cluster = ShardedEngine(num_shards=2, shard_factory=lambda: ITAEngine(CountBasedWindow(10)))
        with pytest.raises(UnknownQueryError):
            cluster.shard_of(7)
        with pytest.raises(UnknownQueryError):
            cluster.migrate_query(7, 1)
