"""A term is watched exactly while some registered query has it.

Registering a query watches its terms (a threshold tree each, and on the
columnar backend an ordered list); unregistering the last query of a term
ends the watch: the tree goes, and the list becomes what an unwatched
term has -- nothing when it is empty, a cold record of its documents on
the columnar backend, a plain list on bisect.  Under subscription churn
the watched set therefore follows the live queries instead of growing
toward the vocabulary, and it is exactly the set a restore builds.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import ITAEngine
from repro.documents.window import CountBasedWindow
from repro.queryscale import QueryScaleOptions
from repro.service import EngineSpec, MonitoringService, WindowSpec
from tests.conftest import make_document, make_query

WINDOW = 50
ROUNDS = 300
#: terms the long-lived queries and most documents share
SHARED = 20
#: first term id handed out fresh, one per churn round
FRESH = 1000

SPECS = {
    "columnar": EngineSpec(window=WindowSpec.count(WINDOW)),
    "bisect": EngineSpec(window=WindowSpec.count(WINDOW), storage="bisect"),
    "sharded": EngineSpec(kind="sharded", num_shards=2, window=WindowSpec.count(WINDOW)),
    "dedup": EngineSpec(window=WindowSpec.count(WINDOW), queryscale=QueryScaleOptions()),
}


def ita_engines(service):
    """The ITA engines holding the service's indexes (one per shard)."""
    engine = service.engine
    return list(getattr(engine, "shards", [engine]))


def watched_sets(service):
    """Per index: the watched terms and the listed terms."""
    return [
        (set(engine.index._trees), set(engine.index._lists))
        for engine in ita_engines(service)
    ]


def check_watched(engine):
    index = engine.index
    live = {term for state in engine._states.values() for term in state.query.weights}
    assert set(index._trees) == live
    assert all(len(tree) for tree in index._trees.values()), "empty threshold tree"
    if index._virtual:
        # no explicit list reads: every list is a watched one
        assert set(index._lists) == set(index._trees)


def churn(service, seed, rounds=ROUNDS):
    """Fresh-term subscribe / ingest / unsubscribe rounds beside a few
    long-lived queries over the shared terms, which also rotate; yields
    after every round."""
    rng = random.Random(seed)
    doc_ids = iter(range(10**6))

    def document(extra=()):
        doc_id = next(doc_ids)
        terms = set(rng.sample(range(SHARED), 4)) | set(extra)
        weights = {term: rng.choice([0.25, 0.5, 0.75, 1.0]) for term in terms}
        return make_document(doc_id, weights, arrival_time=float(doc_id))

    def shared_query(query_id):
        terms = rng.sample(range(SHARED), 3)
        return make_query(query_id, {term: rng.uniform(0.2, 1.0) for term in terms}, k=3)

    query_ids = iter(range(10**6))
    long_lived = [service.subscribe(shared_query(next(query_ids))) for _ in range(4)]
    service.ingest([document() for _ in range(WINDOW)])
    for round_number in range(rounds):
        fresh = FRESH + round_number
        weights = {fresh: 1.0, rng.randrange(SHARED): 0.5}
        handle = service.subscribe(make_query(next(query_ids), weights, k=3))
        # the fresh term, and one nobody ever watches (a cold record)
        service.ingest([document((fresh,)), document((fresh + ROUNDS,))])
        handle.unsubscribe()
        if round_number % 7 == 0:
            long_lived.pop(0).unsubscribe()
            long_lived.append(service.subscribe(shared_query(next(query_ids))))
        yield


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_the_watched_set_follows_the_live_queries(kind):
    with MonitoringService(SPECS[kind]) as service:
        for _ in churn(service, seed=33):
            for engine in ita_engines(service):
                check_watched(engine)
        for engine in ita_engines(service):
            engine.check_invariants()
            # the fresh terms are all gone: only the shared ones stay watched
            assert set(engine.index._trees) <= set(range(SHARED))
        with MonitoringService.restore(service.snapshot()) as restored:
            assert watched_sets(restored) == watched_sets(service)
            assert restored.results() == service.results()


def test_a_demoted_term_comes_back_as_bisect_keeps_it():
    """Demote term 10 to a cold record, let documents come and go, watch it
    again: the list built from the record equals the bisect one."""
    engines = {
        storage: ITAEngine(CountBasedWindow(4), storage=storage)
        for storage in ("columnar", "bisect")
    }
    operations = [
        ("doc", 0, {10: 0.5, 11: 0.5}),
        ("doc", 1, {10: 0.25}),
        ("register", 0, {10: 1.0}),
        ("doc", 2, {10: 0.75, 12: 0.5}),
        ("doc", 3, {11: 1.0}),
        ("unregister", 0, None),
        ("doc", 4, {10: 0.5}),
        ("doc", 5, {12: 0.5}),
        ("register", 1, {10: 1.0, 12: 0.5}),
    ]
    columnar_index = engines["columnar"].index
    for operation, key, weights in operations:
        for engine in engines.values():
            if operation == "doc":
                engine.process_batch_events(
                    [make_document(key, weights, arrival_time=float(key))]
                )
            elif operation == "register":
                engine.register_query(make_query(key, weights, k=2))
            else:
                engine.unregister_query(key)
        if operation == "unregister":
            # the list turned back into a cold record, oldest first
            assert columnar_index._cold[10] == [0, 1, 2]
            assert 10 not in columnar_index._lists
            assert not columnar_index._trees
            assert 10 in engines["bisect"].index._lists  # eager, with postings
        for engine in engines.values():
            engine.check_invariants()
    columnar, bisect = (engines[storage] for storage in ("columnar", "bisect"))
    assert columnar.index._lists[10].to_pairs() == bisect.index._lists[10].to_pairs()
    assert columnar.index._lists[10].to_pairs() == [(2, 0.75), (4, 0.5)]
    assert columnar.current_result(1) == bisect.current_result(1)
    assert columnar.counters == bisect.counters


def test_an_empty_watched_list_goes_with_its_tree():
    for storage in ("columnar", "bisect"):
        engine = ITAEngine(CountBasedWindow(4), storage=storage)
        engine.register_query(make_query(0, {10: 1.0}, k=2))
        assert len(engine.index._lists[10]) == 0
        engine.unregister_query(0)
        assert 10 not in engine.index._lists
        assert 10 not in engine.index._trees
        assert 10 not in engine.index._cold
        engine.check_invariants()


def test_a_reused_id_is_demoted_at_its_arrival():
    """Document 1 expires while term 10 is cold and comes back carrying
    it: the record names id 1 twice, and the later place is its arrival."""
    engine = ITAEngine(CountBasedWindow(4), storage="columnar")
    index = engine.index
    for doc_id, weights in [(1, {10: 0.5}), (2, {10: 0.25}), (3, {11: 1.0}), (4, {11: 1.0})]:
        engine.process_batch_events([make_document(doc_id, weights, arrival_time=float(doc_id))])
    engine.process_batch_events([make_document(1, {10: 1.0}, arrival_time=5.0)])
    assert index._cold[10] == [1, 2, 1]
    engine.register_query(make_query(0, {10: 1.0}, k=2))
    engine.unregister_query(0)
    assert index._cold[10] == [2, 1]
    engine.check_invariants()


@pytest.mark.parametrize("kind", ["columnar", "sharded"])
def test_the_watched_set_is_scraped(kind):
    with MonitoringService(SPECS[kind]) as service:
        for _ in churn(service, seed=34, rounds=20):
            pass
        collected = service.metrics()["collected"]
        if kind == "sharded":  # a cluster reports neither
            assert "repro_index_watched_terms" not in collected
            assert "repro_index_cold_terms" not in collected
            return
        index = service.engine.index
        assert collected["repro_index_watched_terms"] == [
            {"labels": {}, "value": float(len(index._trees))}
        ]
        assert collected["repro_index_cold_terms"] == [
            {"labels": {}, "value": float(len(index._cold))}
        ]
        assert len(index._trees) and len(index._cold)
