"""The Naive monitoring strategy (paper, Section II).

For every arriving document ``d_ins`` Naive computes ``S(d_ins|Q)`` for
*every* installed query; if the score beats the query's current ``S_k``
the document is inserted into the result.  For every expiring document
``d_del`` it checks, again for every query, whether the document is in the
result and removes it if so.  Whenever a result drops below ``k``
documents it is recomputed from scratch by scanning all valid documents.

This is exactly the strategy the paper's experiments compare against
(before the k_max enhancement, which lives in
:mod:`repro.baselines.kmax`).  Its per-event cost is Theta(#queries) for
the scoring sweep plus occasional O(N) full rescans.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.base import MonitoringEngine, ResultChange, TopKPairs, TopKResult
from repro.documents.document import StreamedDocument
from repro.documents.window import CountBasedWindow, SlidingWindow
from repro.exceptions import UnknownQueryError
from repro.query.query import ContinuousQuery
from repro.query.registry import QueryRegistry
from repro.query.result import ResultEntry, ResultList

__all__ = ["NaiveEngine"]


class NaiveEngine(MonitoringEngine):
    """Scan-and-recompute baseline with an exactly-k materialised result."""

    name = "naive"

    def __init__(
        self,
        window: Optional[SlidingWindow] = None,
        track_changes: bool = True,
    ) -> None:
        super().__init__(window if window is not None else CountBasedWindow(1000))
        self.registry = QueryRegistry()
        self.track_changes = track_changes
        self._results: Dict[int, ResultList] = {}
        #: query_id -> True when the materialised view holds *every* valid
        #: document with a positive score (it was never trimmed), in which
        #: case it is trivially a correct prefix of the ranking and never
        #: needs a rescan.
        self._complete: Dict[int, bool] = {}

    # ------------------------------------------------------------------ #
    # query management
    # ------------------------------------------------------------------ #
    def register_query(self, query: ContinuousQuery) -> None:
        self.registry.register(query)
        self._results[query.query_id] = ResultList()
        self._complete[query.query_id] = True
        self._recompute(query)

    def unregister_query(self, query_id: int) -> None:
        self.registry.unregister(query_id)
        del self._results[query_id]
        del self._complete[query_id]

    def query_ids(self) -> List[int]:
        return self.registry.query_ids()

    # ------------------------------------------------------------------ #
    # capacity hooks (overridden by the k_max variant)
    # ------------------------------------------------------------------ #
    def _capacity(self, query: ContinuousQuery) -> int:
        """How many documents the materialised result may hold."""
        return query.k

    def _after_recompute(self, query: ContinuousQuery, arrival_count: int) -> None:
        """Hook for adaptive k_max policies; plain Naive does nothing.

        ``arrival_count`` is the total number of arrivals processed so far,
        so a policy can derive the gap since the previous recomputation.
        """

    # ------------------------------------------------------------------ #
    # stream processing
    # ------------------------------------------------------------------ #
    def process(self, document: StreamedDocument) -> List[ResultChange]:
        self.counters.arrivals += 1
        before: Dict[int, TopKPairs] = {}
        expired = self.window.insert(document)
        for expired_document in expired:
            self._process_expiration(expired_document, before)
        self._process_arrival(document, before)
        return self._collect_changes(before)

    def advance_time(self, now: float) -> List[ResultChange]:
        before: Dict[int, TopKPairs] = {}
        for expired_document in self.window.advance_time(now):
            self._process_expiration(expired_document, before)
        return self._collect_changes(before)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _snapshot(self, query: ContinuousQuery, before: Dict[int, TopKPairs]) -> None:
        if self.track_changes and query.query_id not in before:
            before[query.query_id] = self._results[query.query_id].top_pairs(query.k)

    def _top_pairs(self, query_id: int) -> TopKPairs:
        return self._results[query_id].top_pairs(self.registry.get(query_id).k)

    def _process_arrival(self, document: StreamedDocument, before: Dict[int, TopKPairs]) -> None:
        # Naive has no index: it must score the arriving document against
        # every single installed query.
        for query in self.registry:
            results = self._results[query.query_id]
            score = query.score(document.composition)
            self.counters.scores_computed += 1
            if score <= 0.0:
                continue
            # The materialised view is always a prefix of the true ranking:
            # a new document is admitted when the view is complete (holds
            # every positive-score document) or when it beats the worst
            # view member.  Admitting anything weaker would break the
            # prefix property and silently corrupt later results.
            if not self._complete[query.query_id]:
                if score <= results.min_score():
                    continue
            self._snapshot(query, before)
            results.add(document.doc_id, score)
            capacity = self._capacity(query)
            while len(results) > capacity:
                results.remove(results.worst_doc_id())
                self._complete[query.query_id] = False

    def _process_expiration(self, document: StreamedDocument, before: Dict[int, TopKPairs]) -> None:
        self.counters.expirations += 1
        # Naive must check membership of the expiring document in every
        # query's materialised result.
        for query in self.registry:
            results = self._results[query.query_id]
            if document.doc_id not in results:
                continue
            self._snapshot(query, before)
            results.remove(document.doc_id)
            if len(results) < query.k and not self._complete[query.query_id]:
                self._recompute(query)

    def _recompute(self, query: ContinuousQuery) -> None:
        """Rebuild the materialised result by scanning every valid document."""
        self.counters.full_recomputations += 1
        arrival_count = self.counters.arrivals
        results = self._results[query.query_id]
        results.clear()
        capacity = self._capacity(query)
        scored: List[ResultEntry] = []
        for streamed in self.window:
            score = query.score(streamed.composition)
            self.counters.scores_computed += 1
            if score > 0.0:
                scored.append(ResultEntry(doc_id=streamed.doc_id, score=score))
        scored.sort(key=lambda entry: (-entry.score, entry.doc_id))
        for entry in scored[:capacity]:
            results.add(entry.doc_id, entry.score)
        # The view is complete when nothing was cut off; only then can it
        # absorb arbitrary future arrivals without losing the prefix
        # property.
        self._complete[query.query_id] = len(scored) <= capacity
        self._after_recompute(query, arrival_count)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def current_result(self, query_id: int) -> TopKResult:
        query = self.registry.find(query_id)
        if query is None:
            raise UnknownQueryError(f"query id {query_id} is not registered")
        return self._results[query_id].top(query.k)

    def result_list(self, query_id: int) -> ResultList:
        """The full materialised result (exposed for tests)."""
        try:
            return self._results[query_id]
        except KeyError:
            raise UnknownQueryError(f"query id {query_id} is not registered") from None
