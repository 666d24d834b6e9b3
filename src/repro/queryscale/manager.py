"""The query-scale layer: canonicalization/dedup and weight compaction.

The paper scales the *document* stream; a production alerting service must
also scale *standing queries*.  Real subscription workloads are massively
redundant -- thousands of users watch the same few thousand distinct
term/weight sets -- so the service-level :class:`QueryScaleManager`
installs each distinct normalised query **once** on the engine (a
*canonical* query) and keeps a refcounted fan-out map from canonical
entries back to subscriber ids.  k-distinct-of-N-subscribed then costs
O(distinct) in CPU and threshold state instead of O(N).  Every canonical
query stays registered on the engine for as long as it has a subscriber.

Two invariants make dedup invisible to subscribers:

* **Scores are permutation-invariant.**  The
  :class:`~repro.query.query.ContinuousQuery` constructor normalises
  weight iteration to ascending term id, so ``"white tower"`` and
  ``"tower white"`` score bit-identically and may share one entry.
* **Changes are re-labelled, not re-computed.**  Engine changes carry
  canonical ids; :meth:`QueryScaleManager.expand_changes` clones each one
  per subscriber and restores per-event query-id order, so the change and
  alert streams are bit-identical to a dedup-off run.

A snapshot written by an older release may record a canonical off the
engine, with its own ``query`` record; :meth:`QueryScaleManager.restore_state`
registers it on the engine again.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core import base
from repro.core.base import MonitoringEngine, ResultChange, TopKResult, by_query_id
from repro.exceptions import DuplicateQueryError, UnknownQueryError
from repro.query.query import ContinuousQuery
from repro.queryscale.interning import TermTable
from repro.queryscale.options import QueryScaleOptions
from repro.queryscale.sizing import deep_size_of

__all__ = ["CanonicalQuery", "QueryScaleManager", "canonical_key"]

STATE_VERSION = 1


def canonical_key(query: ContinuousQuery) -> Tuple[int, Tuple[Tuple[int, float], ...]]:
    """The normalised identity of a query: ``(k, ((term, weight), ...))``.

    Queries iterate their weights in ascending term id (a constructor
    guarantee), so the weight items are already a canonical ordering.
    """
    return (query.k, tuple(query.weights.items()))


class CanonicalQuery:
    """One deduplicated scored entry plus its subscriber fan-out.

    ``subscribers`` is kept sorted ascending so change expansion can emit
    per-subscriber clones in deterministic order.
    """

    __slots__ = ("query", "subscribers", "shard")

    def __init__(self, query: ContinuousQuery, shard: Optional[int]) -> None:
        self.query = query
        self.subscribers: List[int] = []
        self.shard = shard

    @property
    def canonical_id(self) -> int:
        return self.query.query_id


class QueryScaleManager:
    """Service-level canonicalization and compaction.

    The manager sits between :class:`~repro.service.service.MonitoringService`
    and *any* engine kind (single, sharded, sharded-proc): engines only
    ever see canonical queries, so no per-engine dedup code exists.
    """

    def __init__(self, engine: MonitoringEngine, options: QueryScaleOptions) -> None:
        options.validate()
        self.engine = engine
        self.options = options
        self.terms = TermTable()
        #: subscriber id -> canonical id
        self._subscribers: Dict[int, int] = {}
        #: subscriber id -> original query text (None for textless)
        self._texts: Dict[int, Optional[str]] = {}
        #: canonical id -> entry
        self._canonicals: Dict[int, CanonicalQuery] = {}
        #: canonical key -> canonical id
        self._by_key: Dict[Tuple[int, Tuple[Tuple[int, float], ...]], int] = {}
        #: mirrors QueryRegistry's allocation semantics over subscriber ids,
        #: so auto-assigned subscriber ids match a dedup-off service's
        self._next_subscriber_id = 0

    # ------------------------------------------------------------------ #
    # subscriber management
    # ------------------------------------------------------------------ #
    def allocate_subscriber_id(self) -> int:
        """A fresh subscriber id (same sequence a dedup-off registry yields)."""
        subscriber_id = self._next_subscriber_id
        self._next_subscriber_id += 1
        return subscriber_id

    def subscribe(
        self, query: ContinuousQuery, shard: Optional[int] = None
    ) -> Tuple[int, bool, Optional[int]]:
        """Install ``query`` for its subscriber id; dedup onto a canonical.

        Returns ``(canonical_id, created, shard)`` where ``created`` says
        a new canonical entry was registered on the engine and ``shard``
        is the canonical's placement (clusters only).  ``shard`` pins the
        placement of a *newly created* canonical -- the WAL replay path
        uses it to reproduce the original placement decision.

        Raises
        ------
        DuplicateQueryError
            If the subscriber id is already subscribed.
        """
        subscriber_id = query.query_id
        if subscriber_id in self._subscribers:
            raise DuplicateQueryError(
                f"query id {subscriber_id} is already registered"
            )
        self._next_subscriber_id = max(self._next_subscriber_id, subscriber_id + 1)
        key = canonical_key(query)
        canonical_id = self._by_key.get(key)
        created = False
        if canonical_id is None:
            canonical_id = self.engine.registry.allocate_id()
            canonical = ContinuousQuery(
                query_id=canonical_id, weights=dict(query.weights), k=query.k
            )
            if self.options.compact_weights:
                self.terms.compact_query(canonical)
            placed = self._register_on_engine(canonical, shard)
            entry = CanonicalQuery(canonical, placed)
            self._canonicals[canonical_id] = entry
            self._by_key[key] = canonical_id
            created = True
        entry = self._canonicals[canonical_id]
        insort(entry.subscribers, subscriber_id)
        self._subscribers[subscriber_id] = canonical_id
        self._texts[subscriber_id] = query.text
        return canonical_id, created, entry.shard

    def unsubscribe(self, subscriber_id: int) -> Optional[int]:
        """Drop a subscription; returns the canonical id it released.

        The canonical entry and its engine registration are torn down
        when its last subscriber leaves.
        """
        canonical_id = self._subscribers.pop(subscriber_id, None)
        if canonical_id is None:
            raise UnknownQueryError(f"query id {subscriber_id} is not registered")
        self._texts.pop(subscriber_id, None)
        entry = self._canonicals[canonical_id]
        entry.subscribers.remove(subscriber_id)
        if entry.subscribers:
            return None
        del self._canonicals[canonical_id]
        del self._by_key[canonical_key(entry.query)]
        self.engine.unregister_query(canonical_id)
        return canonical_id

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def __contains__(self, subscriber_id: int) -> bool:
        return subscriber_id in self._subscribers

    def canonical_id_of(self, subscriber_id: int) -> int:
        try:
            return self._subscribers[subscriber_id]
        except KeyError:
            raise UnknownQueryError(
                f"query id {subscriber_id} is not registered"
            ) from None

    def subscriber_ids(self) -> List[int]:
        return list(self._subscribers.keys())

    def subscriber_query(self, subscriber_id: int) -> ContinuousQuery:
        """Reconstruct the subscriber-visible query object.

        Subscriber queries are not stored (that would defeat dedup); they
        are rebuilt from the canonical weights plus the remembered text.
        """
        canonical = self._canonicals[self.canonical_id_of(subscriber_id)].query
        return ContinuousQuery(
            query_id=subscriber_id,
            weights=dict(canonical.weights),
            k=canonical.k,
            text=self._texts.get(subscriber_id),
        )

    @property
    def subscribed(self) -> int:
        return len(self._subscribers)

    @property
    def canonical_count(self) -> int:
        return len(self._canonicals)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def result_for(self, subscriber_id: int) -> TopKResult:
        """The subscriber's current top-k: its canonical's result."""
        return self.engine.current_result(self.canonical_id_of(subscriber_id))

    def results(self) -> Dict[int, TopKResult]:
        """Every subscriber's current top-k, fanned out from canonicals."""
        canonical_results = self.engine.current_results()
        return {
            subscriber_id: canonical_results[canonical_id]
            for subscriber_id, canonical_id in self._subscribers.items()
        }

    # ------------------------------------------------------------------ #
    # change expansion (the alert fan-out)
    # ------------------------------------------------------------------ #
    def expand_changes(self, changes: List[ResultChange]) -> List[ResultChange]:
        """Re-label one *event's* canonical changes per subscriber.

        Every canonical change is cloned once per subscriber and the
        event's expanded list is stably re-sorted by query id -- the
        per-event order a dedup-off engine (and the cluster merger)
        produces, so downstream change streams are bit-identical.
        """
        if not changes:
            return changes
        new_value = base.new_value
        expanded: List[ResultChange] = []
        for change in changes:
            entry = self._canonicals.get(change.query_id)
            if entry is None:
                expanded.append(change)
                continue
            entered, left = change.entered, change.left
            for subscriber_id in entry.subscribers:
                expanded.append(new_value(ResultChange, (subscriber_id, entered, left)))
        expanded.sort(key=by_query_id)
        return expanded

    # ------------------------------------------------------------------ #
    # per-batch hooks
    # ------------------------------------------------------------------ #
    def begin_batch(self, batch: List[Any]) -> None:
        """No-op; the service does not call it.  Kept because the ``bench/``
        harness wraps this name and :meth:`end_batch` in trace spans."""

    def end_batch(self) -> None:
        """No-op; see :meth:`begin_batch`."""

    # ------------------------------------------------------------------ #
    # engine plumbing
    # ------------------------------------------------------------------ #
    def _register_on_engine(
        self, query: ContinuousQuery, shard: Optional[int]
    ) -> Optional[int]:
        placed: Optional[int] = None
        assignment = getattr(self.engine, "assignment", None)
        if callable(assignment):
            placed = self.engine.register_query(query, shard=shard)
        else:
            self.engine.register_query(query)
        return placed

    # ------------------------------------------------------------------ #
    # compaction and accounting
    # ------------------------------------------------------------------ #
    def compact(self) -> Dict[str, int]:
        """Re-intern every canonical weight table; drop dead pool entries.

        Returns a small stats dict (``converted``/``pool_evicted``/
        ``pool_size``).  Safe to call at any quiescent point: weight
        values and iteration order are unchanged, so engine state built
        from the queries stays valid.
        """
        converted = 0
        live: Set[Tuple[int, ...]] = set()
        for entry in self._canonicals.values():
            if self.terms.compact_query(entry.query):
                converted += 1
            live.add(tuple(entry.query.weights.keys()))
        evicted = self.terms.compact(live)
        return {
            "converted": converted,
            "pool_evicted": evicted,
            "pool_size": len(self.terms),
        }

    def bytes_resident(self, memo: Optional[Set[int]] = None) -> int:
        """Deep-size estimate of all query state owned by this layer.

        Pass a shared ``memo`` to combine with an engine measurement
        without double-counting the canonical query objects both sides
        reference.
        """
        if memo is None:
            memo = set()
        total = deep_size_of(self._subscribers, memo)
        total += deep_size_of(self._texts, memo)
        total += deep_size_of(self._by_key, memo)
        total += deep_size_of(self.terms._pool, memo)
        for entry in self._canonicals.values():
            total += deep_size_of(entry, memo)
        return total

    def metrics_samples(self) -> Dict[Any, float]:
        """Scrape-time samples for the observability registry."""
        subscribed = self.subscribed
        total_bytes = self.bytes_resident()
        per_query = total_bytes / subscribed if subscribed else 0.0
        return {
            "repro_queries_subscribed": float(subscribed),
            "repro_queries_canonical": float(self.canonical_count),
            "repro_queries_dedup_saved": float(subscribed - self.canonical_count),
            "repro_query_bytes_resident": float(total_bytes),
            "repro_query_bytes_per_query": float(per_query),
        }

    # ------------------------------------------------------------------ #
    # snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict[str, Any]:
        """The manager's JSON-compatible checkpoint envelope.

        Canonical queries live in the *engine* snapshot; this envelope
        adds the fan-out map, the allocation counters and each
        canonical's shard.
        """
        return {
            "version": STATE_VERSION,
            "next_subscriber_id": self._next_subscriber_id,
            "next_query_id": self.engine.registry.peek_next_id(),
            "subscribers": [
                [subscriber_id, canonical_id, self._texts.get(subscriber_id)]
                for subscriber_id, canonical_id in sorted(self._subscribers.items())
            ],
            "canonicals": [
                {"query_id": canonical_id, "shard": self._canonicals[canonical_id].shard}
                for canonical_id in sorted(self._canonicals)
            ],
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Rebuild the manager from :meth:`snapshot_state` output.

        Must run *after* the engine restore: canonicals are looked up in
        the engine registry (and re-compacted).  An older snapshot may
        record a canonical off the engine, with its own ``query`` record;
        it is registered on the engine on its recorded shard.  The older
        envelope's other extra fields are ignored.
        """
        from repro.persistence import _query_from_record  # shared WAL/snapshot codec

        self._next_subscriber_id = int(state.get("next_subscriber_id", 0))
        self.engine.registry.reserve_ids(int(state.get("next_query_id", 0)))
        for record in state.get("canonicals", []):
            canonical_id = int(record["query_id"])
            shard = record.get("shard")
            if "query" in record:
                query = _query_from_record(record["query"])
                shard = self._register_on_engine(query, shard)
            else:
                query = self.engine.registry.get(canonical_id)
            if self.options.compact_weights:
                self.terms.compact_query(query)
            self._canonicals[canonical_id] = CanonicalQuery(query, shard)
            self._by_key[canonical_key(query)] = canonical_id
        for subscriber_id, canonical_id, text in state.get("subscribers", []):
            self._subscribers[int(subscriber_id)] = int(canonical_id)
            self._texts[int(subscriber_id)] = text
            insort(self._canonicals[int(canonical_id)].subscribers, int(subscriber_id))

    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Validate the fan-out map against the engine (tests only)."""
        for subscriber_id, canonical_id in self._subscribers.items():
            entry = self._canonicals[canonical_id]
            assert subscriber_id in entry.subscribers
        for canonical_id, entry in self._canonicals.items():
            assert entry.subscribers, f"canonical {canonical_id} has no subscribers"
            assert self._by_key[canonical_key(entry.query)] == canonical_id
            assert canonical_id in self.engine.registry
