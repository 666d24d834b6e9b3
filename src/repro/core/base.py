"""The engine interface shared by ITA and the baselines.

A *monitoring engine* owns a sliding window over the document stream and a
set of installed continuous queries, and keeps every query's top-k result
up to date as documents arrive and expire.  The experiment harness and the
examples only talk to this interface, so ITA, Naive and the k_max-enhanced
Naive are interchangeable.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from repro.documents.document import Document, StreamedDocument
from repro.documents.window import SlidingWindow
from repro.observability.opcounters import OperationCounters
from repro.query.query import ContinuousQuery
from repro.query.result import ResultEntry

__all__ = ["ResultChange", "MonitoringEngine", "TopKPairs", "TopKResult", "by_query_id", "new_value"]


#: A query's reported result: the top-k documents, best first.
TopKResult = List[ResultEntry]

#: The same prefix as the result container orders it: ``(-score, doc_id)``.
TopKPairs = List[Tuple[float, int]]


class ResultChange(NamedTuple):
    """A change to one query's reported top-k result.

    Engines return these from :meth:`MonitoringEngine.process` so that
    downstream applications (alerting, dashboards) can react only to
    queries whose answer actually changed -- the monitoring model of the
    paper's introduction (news tracking, e-mail threat profiles).
    """

    query_id: int
    #: documents that entered the reported top-k
    entered: Tuple[ResultEntry, ...] = ()
    #: documents that left the reported top-k
    left: Tuple[ResultEntry, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.entered or self.left)


#: Sort key of the canonical per-event order (ascending query id), C-level:
#: what dedup's fan-out and the cluster merger re-sort an event's changes by.
by_query_id = attrgetter("query_id")

#: ``new_value(cls, fields)`` builds a change-stream value (``ResultEntry``,
#: ``ResultChange``, ``Alert``) from its field tuple without the named tuple's
#: Python-level ``__new__`` frame.  The alert path's hot sites read it from
#: this module at call time, so a test can count constructions through it.
new_value = tuple.__new__


class MonitoringEngine:
    """Abstract base class of the continuous-text-query engines."""

    #: human-readable engine name used by the experiment reports
    name: str = "abstract"

    def __init__(self, window: SlidingWindow) -> None:
        self.window = window
        self.counters = OperationCounters()

    # ------------------------------------------------------------------ #
    # query management
    # ------------------------------------------------------------------ #
    def register_query(self, query: ContinuousQuery) -> None:
        """Install a continuous query and compute its initial result."""
        raise NotImplementedError

    def install_query(self, query: ContinuousQuery, record: Mapping[str, Any]) -> None:
        """Install a query in the state :meth:`query_states` recorded for it.

        A restore calls this for a query whose snapshot record carries a
        ``"state"``.  An engine that keeps no such state (the baselines)
        ignores the record and registers the query afresh.
        """
        self.register_query(query)

    def query_states(self) -> Dict[int, Dict[str, Any]]:
        """Each query's search state by query id, as a snapshot records it
        beside the query; an engine that keeps none (the baselines) has
        nothing to record."""
        return {}

    def unregister_query(self, query_id: int) -> None:
        """Terminate a continuous query."""
        raise NotImplementedError

    def query_ids(self) -> List[int]:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # stream processing
    # ------------------------------------------------------------------ #
    def process(self, document: StreamedDocument) -> List[ResultChange]:
        """Process one arrival (and any expirations it causes).

        Returns the list of result changes across all installed queries.
        """
        raise NotImplementedError

    def process_batch_events(
        self, documents: Sequence[StreamedDocument]
    ) -> List[List[ResultChange]]:
        """Process a batch of stream elements; changes grouped per event.

        Semantically identical to calling :meth:`process` once per element
        in order -- same final state, same per-event result changes, same
        tie-breaks -- but engines may override it with a fused or
        fanned-out batch path (see
        :meth:`repro.core.engine.ITAEngine.process_batch_events`).  This
        is the call :meth:`repro.service.MonitoringService.ingest` makes;
        the per-event grouping (``result[i]`` belongs to ``documents[i]``)
        is what lets it pair every alert with its triggering document and
        the cluster dispatcher re-interleave shard streams.
        """
        return [self.process(document) for document in documents]

    def process_batch(self, documents: Iterable[StreamedDocument]) -> List[ResultChange]:
        """Process a batch of stream elements; return the flattened changes.

        :meth:`process_batch_events` with the per-event grouping dropped
        -- what the benchmark harness's batched mode calls.
        """
        batch = documents if isinstance(documents, (list, tuple)) else list(documents)
        changes: List[ResultChange] = []
        for event_changes in self.process_batch_events(batch):
            changes.extend(event_changes)
        return changes

    def process_many(self, documents: Iterable[StreamedDocument]) -> List[ResultChange]:
        """Feed a sequence of stream elements; return all result changes.

        Alias of :meth:`process_batch`, kept for callers predating the
        batched hot path.
        """
        return self.process_batch(documents)

    def advance_time(self, now: float) -> List[ResultChange]:
        """Advance the clock without an arrival (time-based windows only)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def current_result(self, query_id: int) -> TopKResult:
        """The current top-k result of ``query_id`` (best document first)."""
        raise NotImplementedError

    def current_results(self) -> Dict[int, TopKResult]:
        """The current results of every installed query."""
        return {query_id: self.current_result(query_id) for query_id in self.query_ids()}

    # ------------------------------------------------------------------ #
    # helpers shared by implementations
    # ------------------------------------------------------------------ #
    def _top_pairs(self, query_id: int) -> TopKPairs:
        """The reported top-k of ``query_id`` as ``(-score, doc_id)`` pairs."""
        raise NotImplementedError

    def _collect_changes(self, before: Dict[int, TopKPairs]) -> List[ResultChange]:
        """One event's result changes, **ordered by query id**.

        ``before`` maps each query the event touched to the
        :meth:`_top_pairs` it reported beforehand (empty when the engine
        does not track changes).  An unchanged query costs one list
        comparison; otherwise entries are built only for the documents
        that entered or left.  Query-id order is the canonical per-event
        order of the whole system -- every engine, storage backend and
        batch size emits it, and the cluster merger's sort is then a no-op.
        """
        changes: List[ResultChange] = []
        for query_id in sorted(before):
            old, new = before[query_id], self._top_pairs(query_id)
            if old == new:
                continue
            old_ids = {pair[1] for pair in old}
            new_ids = {pair[1] for pair in new}
            entered = tuple(ResultEntry(doc_id, -key) for key, doc_id in new if doc_id not in old_ids)
            left = tuple(ResultEntry(doc_id, -key) for key, doc_id in old if doc_id not in new_ids)
            if entered or left:
                changes.append(ResultChange(query_id, entered, left))
        return changes
