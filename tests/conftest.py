"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import pytest

from repro.core import base
from repro.documents.document import CompositionList, Document, StreamedDocument
from repro.query.query import ContinuousQuery


# --------------------------------------------------------------------------- #
# document construction helpers
# --------------------------------------------------------------------------- #
def make_document(doc_id: int, weights: Dict[int, float], arrival_time: float = 0.0) -> StreamedDocument:
    """Build a streamed document directly from a ``{term_id: weight}`` map."""
    return StreamedDocument(
        document=Document(doc_id=doc_id, composition=CompositionList(weights)),
        arrival_time=arrival_time,
    )


def make_query(query_id: int, weights: Dict[int, float], k: int = 2) -> ContinuousQuery:
    """Build a query directly from a ``{term_id: weight}`` map."""
    return ContinuousQuery(query_id=query_id, weights=weights, k=k)


class StreamCase:
    """A randomly generated (queries, documents) workload for equivalence tests.

    Weights are drawn from a small discrete grid so that score ties do
    occur and the tie-handling of all engines gets exercised.
    """

    def __init__(
        self,
        seed: int,
        num_terms: int = 12,
        num_queries: int = 8,
        num_documents: int = 120,
        max_query_terms: int = 4,
        max_doc_terms: int = 5,
        k_range: Tuple[int, int] = (1, 4),
    ) -> None:
        rng = random.Random(seed)
        self.seed = seed
        weight_grid = [0.1, 0.2, 0.25, 0.5, 0.75, 1.0]
        self.queries: List[ContinuousQuery] = []
        for query_id in range(num_queries):
            n_terms = rng.randint(1, max_query_terms)
            terms = rng.sample(range(num_terms), n_terms)
            weights = {t: rng.choice(weight_grid) for t in terms}
            k = rng.randint(*k_range)
            self.queries.append(ContinuousQuery(query_id=query_id, weights=weights, k=k))
        self.documents: List[StreamedDocument] = []
        clock = 0.0
        for doc_id in range(num_documents):
            clock += rng.choice([0.1, 0.5, 1.0, 2.0])
            n_terms = rng.randint(0, max_doc_terms)
            terms = rng.sample(range(num_terms), n_terms) if n_terms else []
            weights = {t: rng.choice(weight_grid) for t in terms}
            self.documents.append(make_document(doc_id, weights, arrival_time=clock))


class TieFreeCase:
    """A seeded workload with continuous weights (score ties absent)."""

    def __init__(self, seed, num_terms=12, num_queries=8, num_documents=160):
        rng = random.Random(seed)
        self.queries = []
        for query_id in range(num_queries):
            terms = rng.sample(range(num_terms), rng.randint(1, 4))
            weights = {term: round(rng.uniform(0.05, 1.0), 6) for term in terms}
            self.queries.append(
                ContinuousQuery(query_id=query_id, weights=weights, k=rng.randint(1, 4))
            )
        self.documents = []
        clock = 0.0
        for doc_id in range(num_documents):
            clock += rng.choice([0.1, 0.5, 1.0])
            count = rng.randint(0, 5)
            terms = rng.sample(range(num_terms), count) if count else []
            weights = {term: round(rng.uniform(0.05, 1.0), 6) for term in terms}
            self.documents.append(
                make_document(doc_id, weights, arrival_time=round(clock, 6))
            )


def score_signature(entries: Sequence) -> List[float]:
    """The sorted score list of a result -- the tie-tolerant comparison key."""
    return [round(entry.score, 9) for entry in entries]


def assert_same_topk(reference: Sequence, candidate: Sequence, context: str = "") -> None:
    """Assert two top-k results agree up to ties at equal scores.

    The score sequences must match exactly; document ids must match except
    where scores tie (any document achieving the tied score is acceptable).
    """
    assert score_signature(reference) == score_signature(candidate), (
        f"score sequences differ {context}: "
        f"{score_signature(reference)} != {score_signature(candidate)}"
    )
    ref_by_score: Dict[float, set] = {}
    for entry in reference:
        ref_by_score.setdefault(round(entry.score, 9), set()).add(entry.doc_id)
    for entry in candidate:
        key = round(entry.score, 9)
        # A candidate document is acceptable if some reference document has
        # the same score -- this only relaxes the comparison at exact ties.
        assert key in ref_by_score, f"unexpected score {key} {context}"


def count_constructions(monkeypatch, *classes) -> Counter:
    """Count, per class, the instances built by calling it -- through ``__new__``
    -- or through :data:`repro.core.base.new_value`, the frameless construction
    of the alert path's hot sites, so a site that switches between the two
    is counted either way.

    The change stream's value types are tuples: ``__init__`` is ``object``'s
    and sees no arguments worth counting.  ``_make`` / ``_replace`` go
    straight to ``tuple.__new__`` and are not counted.  The counter is live
    until ``monkeypatch.undo()``.
    """
    built: Counter = Counter()
    # bench_delivery.py may run this against another checkout's repro,
    # which need not have the name
    new_value = getattr(base, "new_value", None)

    def counting_new_value(cls, fields):
        if cls in classes:
            built[cls] += 1
        return new_value(cls, fields)

    if new_value is not None:
        monkeypatch.setattr(base, "new_value", counting_new_value)

    def counted(cls):
        original = cls.__new__

        def counting_new(klass, *args, **kwargs):
            built[cls] += 1
            if original is object.__new__:  # the arguments are __init__'s
                return original(klass)
            return original(klass, *args, **kwargs)

        return counting_new

    for cls in classes:
        monkeypatch.setattr(cls, "__new__", counted(cls))
    return built


@pytest.fixture
def tiny_documents() -> List[StreamedDocument]:
    """Five small hand-written documents over terms 0..3."""
    return [
        make_document(0, {0: 0.9, 1: 0.1}, arrival_time=1.0),
        make_document(1, {1: 0.8, 2: 0.2}, arrival_time=2.0),
        make_document(2, {0: 0.5, 2: 0.5}, arrival_time=3.0),
        make_document(3, {2: 0.7, 3: 0.3}, arrival_time=4.0),
        make_document(4, {0: 0.2, 3: 0.9}, arrival_time=5.0),
    ]
