"""The ITA monitoring engine.

:class:`ITAEngine` is the "monitoring server" of the paper: it owns the
sliding window, the inverted index with its threshold trees, and one
:class:`~repro.core.ita.ITAQueryState` per installed query.  Processing one
stream element consists of

1. sliding the window (which may expire one or more documents),
2. for each expiration: deleting the document's impact entries from the
   inverted lists, probing the threshold tree of each affected term for
   the queries whose local threshold lies at or below the removed weight,
   and letting those queries update their results (removal and, if needed,
   incremental refill),
3. for the arrival: inserting the impact entries, probing the threshold
   trees the same way, and letting the potentially affected queries score
   the document (and roll up their thresholds when it enters their top-k).

Queries never touched by the probes are not visited at all -- the source
of ITA's advantage over the Naive baseline.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Union

from repro.observability import runtime as _obs

from repro.core.base import MonitoringEngine, ResultChange, TopKPairs, TopKResult
from repro.core.descent import ProbeOrder
from repro.core.ita import ITAQueryState
from repro.documents.document import StreamedDocument
from repro.documents.window import CountBasedWindow, SlidingWindow
from repro.exceptions import ConfigurationError, UnknownQueryError
from repro.index.backend import StorageBackend, storage_backend
from repro.index.inverted_index import InvertedIndex
from repro.query.query import ContinuousQuery
from repro.query.registry import QueryRegistry

__all__ = ["ITAEngine"]


def _generic_batch_kernel(engine: "ITAEngine", documents: Sequence[StreamedDocument]):
    """The batch path of storage backends without a fused kernel."""
    return [engine.process(document) for document in documents]


class ITAEngine(MonitoringEngine):
    """Continuous text-query engine implementing the Incremental Threshold
    Algorithm of Mouratidis & Pang (ICDE 2009).

    Parameters
    ----------
    window:
        The sliding window (count- or time-based).  Defaults to a
        count-based window of 1,000 documents.
    track_changes:
        When ``True`` (default) :meth:`process` returns the per-query
        result changes; set ``False`` in benchmarks to avoid the diffing
        cost when only the final results matter.
    enable_rollup, probe_order:
        Forwarded to each :class:`~repro.core.ita.ITAQueryState`; exposed so
        the design-choice ablations can disable roll-up or switch the
        threshold descent to round-robin probing.
    storage:
        The storage backend holding the scoring state: a registered backend
        name or a :class:`~repro.index.backend.StorageBackend` instance.
        An engine constructed directly defaults to ``"bisect"``, the
        paper-faithful reference containers and the conformance oracle; a
        service builds its engines from an
        :class:`~repro.service.spec.EngineSpec`, whose default is
        ``"columnar"`` (:data:`~repro.index.backend.DEFAULT_STORAGE`).
        Backends are semantically interchangeable; they differ in
        representation and speed.
    """

    name = "ita"

    def __init__(
        self,
        window: Optional[SlidingWindow] = None,
        track_changes: bool = True,
        enable_rollup: bool = True,
        probe_order: ProbeOrder = ProbeOrder.WEIGHTED,
        storage: Union[str, StorageBackend] = "bisect",
    ) -> None:
        super().__init__(window if window is not None else CountBasedWindow(1000))
        backend = storage_backend(storage) if isinstance(storage, str) else storage
        self.storage = backend.name
        self.index = InvertedIndex(backend=backend)
        self.registry = QueryRegistry()
        self.track_changes = track_changes
        self.enable_rollup = enable_rollup
        self.probe_order = probe_order
        self._states: Dict[int, ITAQueryState] = {}
        self._batch_kernel = backend.batch_kernel() or _generic_batch_kernel

    # ------------------------------------------------------------------ #
    # query management
    # ------------------------------------------------------------------ #
    def register_query(self, query: ContinuousQuery) -> None:
        """Install ``query`` and compute its initial top-k result."""
        self.registry.register(query)
        state = self._new_state(query)
        state.initialise()
        self._states[query.query_id] = state

    def install_query(self, query: ContinuousQuery, record: Mapping[str, Any]) -> None:
        """Install ``query`` in the state :meth:`query_states` recorded for it.

        A restore's :meth:`register_query`: no descent
        (:meth:`~repro.core.ita.ITAQueryState.install`).  A record the
        query cannot be in over this window raises
        :class:`~repro.exceptions.ConfigurationError` and installs nothing.
        """
        self.registry.register(query)
        state = self._new_state(query)
        try:
            state.install(record)
        except ConfigurationError:
            self.registry.unregister(query.query_id)
            raise
        self._states[query.query_id] = state

    def _new_state(self, query: ContinuousQuery) -> ITAQueryState:
        return ITAQueryState(
            query,
            self.index,
            self.counters,
            enable_rollup=self.enable_rollup,
            probe_order=self.probe_order,
        )

    def query_states(self) -> Dict[int, Dict[str, Any]]:
        """Each query's ITA state by query id, as a snapshot records it
        (:meth:`~repro.core.ita.ITAQueryState.export`)."""
        return {query_id: state.export() for query_id, state in self._states.items()}

    def unregister_query(self, query_id: int) -> None:
        """Terminate the query with ``query_id``."""
        self.registry.unregister(query_id)
        state = self._states.pop(query_id)
        state.detach()

    def query_ids(self) -> List[int]:
        return self.registry.query_ids()

    def state_of(self, query_id: int) -> ITAQueryState:
        """The internal per-query state (exposed for tests and diagnostics)."""
        try:
            return self._states[query_id]
        except KeyError:
            raise UnknownQueryError(f"query id {query_id} is not registered") from None

    # ------------------------------------------------------------------ #
    # stream processing
    # ------------------------------------------------------------------ #
    def process(self, document: StreamedDocument) -> List[ResultChange]:
        """Process one arrival and the expirations it causes.

        The paper-faithful reference path: one method call per stage, one
        :class:`~repro.core.ita.ITAQueryState` handler per affected query.
        The ``"bisect"`` batch path and the conformance oracle; it is not timed.
        """
        self.counters.arrivals += 1
        before: Dict[int, TopKPairs] = {}
        for expired_document in self.window.insert(document):
            self._process_expiration(expired_document, before)
        self._process_arrival(document, before)
        return self._collect_changes(before)

    def process_batch_events(
        self, documents: Sequence[StreamedDocument]
    ) -> List[List[ResultChange]]:
        """Process a whole batch; one (possibly empty) change list per document.

        This is the path every document takes from the service to the
        engine.  It runs the storage backend's fused kernel when there is
        one (``storage="columnar"``) and :meth:`process` once per document
        otherwise (``storage="bisect"``).  Either way events are applied
        strictly in arrival order, every expiration before its triggering
        arrival, and the engine state, counters and per-event changes are
        exactly those of calling :meth:`process` once per document; with
        ``track_changes=False`` every list is empty.
        """
        return self._batch_kernel(self, documents)

    def advance_time(self, now: float) -> List[ResultChange]:
        """Expire documents by the passage of time (time-based windows)."""
        observed = _obs.active
        started = _perf_counter() if observed else 0.0
        before: Dict[int, TopKPairs] = {}
        for expired_document in self.window.advance_time(now):
            self._process_expiration(expired_document, before)
        changes = self._collect_changes(before)
        if observed:  # the whole call is one stage, on either storage
            _obs.counter_child(
                "repro_engine_stage_ms_total", "per-stage engine time", "stage", "expire"
            ).add((_perf_counter() - started) * 1000.0)
        return changes

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _snapshot(self, query_id: int, before: Dict[int, TopKPairs]) -> None:
        if self.track_changes and query_id not in before:
            before[query_id] = self._top_pairs(query_id)

    def _top_pairs(self, query_id: int) -> TopKPairs:
        state = self._states[query_id]
        return state.results.top_pairs(state.query.k)

    def _affected_queries(self, document: StreamedDocument) -> Set[int]:
        """Probe the threshold trees: queries with a local threshold at or
        below the document's weight in at least one shared term."""
        affected: Set[int] = set()
        for term_id, weight in document.composition.items():
            tree = self.index.existing_tree(term_id)
            if tree is None:
                continue
            self.counters.threshold_probes += 1
            for query_id in tree.iter_queries_at_or_below(weight):
                affected.add(query_id)
        self.counters.candidate_matches += len(affected)
        return affected

    def _process_arrival(self, document: StreamedDocument, before: Dict[int, TopKPairs]) -> None:
        """Index the arriving document and notify potentially affected queries."""
        inserted = self.index.insert_document(document)
        self.counters.postings_inserted += inserted
        for query_id in self._affected_queries(document):
            self._snapshot(query_id, before)
            self._states[query_id].handle_arrival(document)

    def _process_expiration(self, document: StreamedDocument, before: Dict[int, TopKPairs]) -> None:
        """Un-index the expiring document and notify potentially affected queries."""
        self.counters.expirations += 1
        _, removed = self.index.remove_document(document.doc_id)
        self.counters.postings_deleted += removed
        for query_id in self._affected_queries(document):
            self._snapshot(query_id, before)
            self._states[query_id].handle_expiration(document.doc_id)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def current_result(self, query_id: int) -> TopKResult:
        return self.state_of(query_id).top_k()

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Validate the index and every per-query state (tests only)."""
        self.index.check_invariants()
        # A term is watched exactly while a registered query has it, so
        # every tree that is probed has somebody to notify.
        trees = self.index._trees
        assert trees.keys() == {
            term_id for state in self._states.values() for term_id in state.query.weights
        }, "watched terms differ from the registered queries' terms"
        assert all(len(tree) for tree in trees.values()), "empty threshold tree"
        for state in self._states.values():
            state.check_invariants()
