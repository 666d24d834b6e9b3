"""The oracle reference engine.

Recomputes every query's top-k from scratch after every event by scanning
all valid documents.  It is hopelessly slow and exists only as ground truth
for the correctness tests: ITA, Naive and k_max-Naive must all report the
same result (up to ties at the k-th score) as the oracle after every event
of any stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.base import MonitoringEngine, ResultChange, TopKResult
from repro.documents.document import StreamedDocument
from repro.documents.window import CountBasedWindow, SlidingWindow
from repro.exceptions import UnknownQueryError
from repro.query.query import ContinuousQuery
from repro.query.registry import QueryRegistry
from repro.query.result import ResultEntry

__all__ = ["OracleEngine"]


class OracleEngine(MonitoringEngine):
    """Recompute-from-scratch reference implementation (tests only)."""

    name = "oracle"

    def __init__(
        self,
        window: Optional[SlidingWindow] = None,
        track_changes: bool = True,
    ) -> None:
        super().__init__(window if window is not None else CountBasedWindow(1000))
        self.registry = QueryRegistry()
        self.track_changes = track_changes

    # ------------------------------------------------------------------ #
    def register_query(self, query: ContinuousQuery) -> None:
        self.registry.register(query)

    def unregister_query(self, query_id: int) -> None:
        self.registry.unregister(query_id)

    def query_ids(self) -> List[int]:
        return self.registry.query_ids()

    # ------------------------------------------------------------------ #
    def process(self, document: StreamedDocument) -> List[ResultChange]:
        self.counters.arrivals += 1
        before = self._results_before()
        expired = self.window.insert(document)
        self.counters.expirations += len(expired)
        return self._collect_changes(before)

    def advance_time(self, now: float) -> List[ResultChange]:
        before = self._results_before()
        expired = self.window.advance_time(now)
        self.counters.expirations += len(expired)
        return self._collect_changes(before)

    # ------------------------------------------------------------------ #
    def _results_before(self) -> Dict[int, TopKResult]:
        if not self.track_changes:
            return {}
        return {query.query_id: self.current_result(query.query_id) for query in self.registry}

    def _collect_changes(self, before: Dict[int, TopKResult]) -> List[ResultChange]:
        """The oracle's own full entry diff -- on purpose not the pair diff it is a model for."""
        changes: List[ResultChange] = []
        for query_id, old in sorted(before.items()):
            new = self.current_result(query_id)
            old_ids = {entry.doc_id for entry in old}
            new_ids = {entry.doc_id for entry in new}
            entered = tuple(entry for entry in new if entry.doc_id not in old_ids)
            left = tuple(entry for entry in old if entry.doc_id not in new_ids)
            if entered or left:
                changes.append(ResultChange(query_id=query_id, entered=entered, left=left))
        return changes

    # ------------------------------------------------------------------ #
    def current_result(self, query_id: int) -> TopKResult:
        query = self.registry.find(query_id)
        if query is None:
            raise UnknownQueryError(f"query id {query_id} is not registered")
        scored: List[ResultEntry] = []
        for streamed in self.window:
            score = query.score(streamed.composition)
            self.counters.scores_computed += 1
            if score > 0.0:
                scored.append(ResultEntry(doc_id=streamed.doc_id, score=score))
        scored.sort(key=lambda entry: (-entry.score, entry.doc_id))
        return scored[: query.k]
