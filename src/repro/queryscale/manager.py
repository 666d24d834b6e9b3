"""The query-scale layer: canonicalization/dedup and cold-query hibernation.

The paper scales the *document* stream; a production alerting service must
also scale *standing queries*.  Real subscription workloads are massively
redundant -- thousands of users watch the same few thousand distinct
term/weight sets -- so the service-level :class:`QueryScaleManager`
installs each distinct normalised query **once** on the engine (a
*canonical* query) and keeps a refcounted fan-out map from canonical
entries back to subscriber ids.  k-distinct-of-N-subscribed then costs
O(distinct) in CPU and threshold state instead of O(N).

Three invariants make dedup invisible to subscribers:

* **Scores are permutation-invariant.**  The
  :class:`~repro.query.query.ContinuousQuery` constructor normalises
  weight iteration to ascending term id, so ``"white tower"`` and
  ``"tower white"`` score bit-identically and may share one entry.
* **Changes are re-labelled, not re-computed.**  Engine changes carry
  canonical ids; :meth:`QueryScaleManager.expand_changes` clones each one
  per subscriber and restores per-event query-id order, so the change and
  alert streams are bit-identical to a dedup-off run.
* **Hibernation wakes before anything can change.**  A dormant canonical
  query is unregistered from the engine (its state spilled to the
  manager + WAL/checkpoint via the service snapshot) only while its
  stored top-k provably cannot change: it is woken before any arrival
  sharing one of its terms, before any predicted eviction of a stored
  result document, and on explicit ``result()``/``results()`` reads.
  Waking re-registers the query; engines recompute the result from the
  window, which reproduces the stored result exactly.

Hibernation decisions count stream *events*, never wall-clock time, and
every transition is WAL-logged (``hibernate``/``wake`` records), so crash
recovery replays to a bit-identical engine -- the kill-point suite in
``tests/durability/test_crash_recovery.py`` asserts this at every record
boundary.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core import base
from repro.core.base import MonitoringEngine, ResultChange, TopKResult, by_query_id
from repro.documents.document import StreamedDocument
from repro.documents.window import CountBasedWindow, TimeBasedWindow
from repro.exceptions import DuplicateQueryError, UnknownQueryError
from repro.persistence import query_record
from repro.query.query import ContinuousQuery
from repro.query.result import ResultEntry
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
    per-subscriber clones in deterministic order.  While ``hibernated``,
    the engine does not know the query; ``stored_entries`` holds the
    (provably current) top-k captured at hibernation time.
    """

    __slots__ = (
        "query",
        "subscribers",
        "shard",
        "last_change",
        "hibernated",
        "stored_entries",
    )

    def __init__(self, query: ContinuousQuery, shard: Optional[int]) -> None:
        self.query = query
        self.subscribers: List[int] = []
        self.shard = shard
        #: manager event-clock value of the last emitted result change
        self.last_change = 0
        self.hibernated = False
        self.stored_entries: Optional[TopKResult] = None

    @property
    def canonical_id(self) -> int:
        return self.query.query_id


class QueryScaleManager:
    """Service-level canonicalization, compaction and hibernation.

    The manager sits between :class:`~repro.service.service.MonitoringService`
    and *any* engine kind (single, sharded, sharded-proc): engines only
    ever see canonical queries, so no per-engine dedup code exists.

    ``wal_provider`` returns the service's attached
    :class:`~repro.durability.log.DurabilityLog` (or ``None``); hibernate
    and wake transitions append replicated WAL records through it.
    """

    def __init__(
        self,
        engine: MonitoringEngine,
        options: QueryScaleOptions,
        wal_provider: Optional[Callable[[], Any]] = None,
    ) -> None:
        options.validate()
        self.engine = engine
        self.options = options
        self.terms = TermTable()
        self._wal_provider = wal_provider or (lambda: None)
        #: subscriber id -> canonical id
        self._subscribers: Dict[int, int] = {}
        #: subscriber id -> original query text (None for textless)
        self._texts: Dict[int, Optional[str]] = {}
        #: canonical id -> entry
        self._canonicals: Dict[int, CanonicalQuery] = {}
        #: canonical key -> canonical id
        self._by_key: Dict[Tuple[int, Tuple[Tuple[int, float], ...]], int] = {}
        #: term id -> hibernated canonical ids listening on it
        self._term_wakers: Dict[int, Set[int]] = {}
        #: doc id -> hibernated canonical ids holding it in their stored top-k
        self._doc_wakers: Dict[int, Set[int]] = {}
        #: deterministic event clock: documents ingested + time advances
        self._events = 0
        #: mirrors QueryRegistry's allocation semantics over subscriber ids,
        #: so auto-assigned subscriber ids match a dedup-off service's
        self._next_subscriber_id = 0
        self.hibernations_total = 0
        self.wakes_total = 0
        #: canonicals with ``entry.hibernated`` set, kept where the flag is
        #: written: every ingest reads it, and a scan is O(canonicals)
        self.hibernated_count = 0

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
            entry.last_change = self._events
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

        The canonical entry (and its engine registration or hibernated
        state) is torn down when its last subscriber leaves.
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
        if entry.hibernated:
            self._drop_wake_indexes(entry)
            self.hibernated_count -= 1
        else:
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
        """The subscriber's current top-k; wakes a hibernated canonical.

        An explicit read is one of the documented re-hydration triggers:
        the canonical is woken (WAL-logged, so replay re-derives the
        identical engine state) and the engine recomputes its result from
        the window -- which, by the hibernation invariant, equals the
        stored result exactly.
        """
        canonical_id = self.canonical_id_of(subscriber_id)
        entry = self._canonicals[canonical_id]
        if entry.hibernated:
            self._wake(entry, log=True)
        return self.engine.current_result(canonical_id)

    def results(self) -> Dict[int, TopKResult]:
        """Every subscriber's current top-k, fanned out from canonicals."""
        self.wake_all()
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
        # last_change only drives the hibernation policies; left untouched
        # when they are off, so snapshots stay bit-identical between the
        # sync path and the async pipeline (which expands after later
        # sub-batches may have advanced the event clock).
        track_idleness = self.options.hibernation_enabled
        new_value = base.new_value
        expanded: List[ResultChange] = []
        for change in changes:
            entry = self._canonicals.get(change.query_id)
            if entry is None:
                expanded.append(change)
                continue
            if track_idleness:
                entry.last_change = self._events
            entered, left = change.entered, change.left
            for subscriber_id in entry.subscribers:
                expanded.append(new_value(ResultChange, (subscriber_id, entered, left)))
        expanded.sort(key=by_query_id)
        return expanded

    # ------------------------------------------------------------------ #
    # hibernation: wake triggers
    # ------------------------------------------------------------------ #
    def begin_batch(self, batch: List[StreamedDocument]) -> None:
        """Pre-ingest hook: wake affected canonicals, advance the clock.

        Runs *before* the batch is WAL-logged or processed, so wake
        records precede the ingest record and a recovered log replays the
        transitions in the original order.  A hibernated query is woken
        iff the batch could change its result: an arriving document
        shares one of its terms, or a document of its stored top-k is
        predicted to be evicted by the batch's arrivals.
        """
        if not batch:
            return
        if self.hibernated_count:
            to_wake: Set[int] = set()
            for streamed in batch:
                for term_id in streamed.composition.terms():
                    to_wake.update(self._term_wakers.get(term_id, ()))
            for doc_id in self._predicted_evictions(batch):
                to_wake.update(self._doc_wakers.get(doc_id, ()))
            self._wake_ids(to_wake)
        self._events += len(batch)

    def begin_advance(self, now: float) -> None:
        """Pre-``advance_time`` hook: wake canonicals losing stored docs."""
        if self.hibernated_count:
            to_wake: Set[int] = set()
            window = self.engine.window
            if isinstance(window, TimeBasedWindow):
                for streamed in window:
                    if now - streamed.arrival_time < window.span:
                        break
                    to_wake.update(self._doc_wakers.get(streamed.doc_id, ()))
            self._wake_ids(to_wake)
        self._events += 1

    def end_batch(self) -> None:
        """Post-processing hook: apply the idle/LRU hibernation policy.

        Both policies are pure functions of ``(event clock, last-change
        clocks)``, so an uninterrupted run and a WAL replay take identical
        decisions at identical stream positions.
        """
        options = self.options
        if not options.hibernation_enabled:
            return
        idle_after = options.hibernate_after
        if idle_after > 0:
            for canonical_id in sorted(self._canonicals):
                entry = self._canonicals[canonical_id]
                if entry.hibernated:
                    continue
                if self._events - entry.last_change >= idle_after:
                    self._hibernate(entry)
        cap = options.max_resident
        if cap > 0:
            resident = [e for e in self._canonicals.values() if not e.hibernated]
            if len(resident) > cap:
                resident.sort(key=lambda e: (e.last_change, e.canonical_id))
                for entry in resident[: len(resident) - cap]:
                    self._hibernate(entry)

    def wake_all(self) -> int:
        """Wake every hibernated canonical (explicit ``results()`` reads)."""
        woken = self._wake_ids(
            {cid for cid, e in self._canonicals.items() if e.hibernated}
        )
        return woken

    def _predicted_evictions(self, batch: List[StreamedDocument]) -> List[int]:
        """Doc ids the window will evict while absorbing ``batch``.

        Conservative (a superset is safe -- a woken-but-unaffected query
        emits no changes) but deterministic: a pure function of the
        current window and the batch.
        """
        window = self.engine.window
        if not self._doc_wakers:
            return []
        if isinstance(window, CountBasedWindow):
            overflow = len(window) + len(batch) - window.size
            if overflow <= 0:
                return []
            evicted = []
            for streamed in window:
                if len(evicted) >= overflow:
                    break
                evicted.append(streamed.doc_id)
            return evicted
        if isinstance(window, TimeBasedWindow):
            horizon = max(streamed.arrival_time for streamed in batch)
            evicted = []
            for streamed in window:
                if horizon - streamed.arrival_time < window.span:
                    break
                evicted.append(streamed.doc_id)
            return evicted
        return [streamed.doc_id for streamed in window]

    # ------------------------------------------------------------------ #
    # hibernation: transitions
    # ------------------------------------------------------------------ #
    def _hibernate(self, entry: CanonicalQuery) -> bool:
        canonical_id = entry.canonical_id
        entries = self.engine.current_result(canonical_id)
        # Only a *full* result of positive scores is dormancy-provable:
        # with a short or zero-scored result, any arrival at all could
        # enter the top-k and the wake triggers would be incomplete.
        if len(entries) < entry.query.k or (entries and entries[-1].score <= 0.0):
            return False
        if not entries:
            return False
        assignment = getattr(self.engine, "assignment", None)
        if callable(assignment):
            entry.shard = assignment().get(canonical_id)
        self._log_record({"op": "hibernate", "query_id": canonical_id})
        self.engine.unregister_query(canonical_id)
        entry.hibernated = True
        self.hibernated_count += 1
        entry.stored_entries = list(entries)
        for term_id in entry.query.weights.keys():
            self._term_wakers.setdefault(term_id, set()).add(canonical_id)
        for result_entry in entries:
            self._doc_wakers.setdefault(result_entry.doc_id, set()).add(canonical_id)
        self.hibernations_total += 1
        return True

    def _wake(self, entry: CanonicalQuery, log: bool = True) -> None:
        canonical_id = entry.canonical_id
        if log:
            self._log_record({"op": "wake", "query_id": canonical_id})
        self._drop_wake_indexes(entry)
        entry.hibernated = False
        self.hibernated_count -= 1
        entry.stored_entries = None
        self._register_on_engine(entry.query, entry.shard)
        self.wakes_total += 1

    def _wake_ids(self, canonical_ids: Iterable[int]) -> int:
        woken = 0
        for canonical_id in sorted(canonical_ids):
            entry = self._canonicals.get(canonical_id)
            if entry is not None and entry.hibernated:
                self._wake(entry, log=True)
                woken += 1
        return woken

    def _drop_wake_indexes(self, entry: CanonicalQuery) -> None:
        canonical_id = entry.canonical_id
        for term_id in entry.query.weights.keys():
            listeners = self._term_wakers.get(term_id)
            if listeners is not None:
                listeners.discard(canonical_id)
                if not listeners:
                    del self._term_wakers[term_id]
        for result_entry in entry.stored_entries or ():
            listeners = self._doc_wakers.get(result_entry.doc_id)
            if listeners is not None:
                listeners.discard(canonical_id)
                if not listeners:
                    del self._doc_wakers[result_entry.doc_id]

    # ------------------------------------------------------------------ #
    # WAL replay application (idempotent)
    # ------------------------------------------------------------------ #
    def apply_hibernate_record(self, canonical_id: int) -> None:
        """Replay one ``hibernate`` WAL record (no-op if already dormant).

        Replayed ingest records re-derive hibernation decisions through
        the normal policy, so by the time the explicit record is reached
        the transition has usually already happened -- idempotency keeps
        the two paths from fighting.
        """
        entry = self._canonicals.get(canonical_id)
        if entry is not None and not entry.hibernated:
            self._hibernate(entry)

    def apply_wake_record(self, canonical_id: int) -> None:
        """Replay one ``wake`` WAL record (no-op if already awake).

        Wake-on-read transitions are *only* reproducible through these
        records: reads are not otherwise logged.
        """
        entry = self._canonicals.get(canonical_id)
        if entry is not None and entry.hibernated:
            self._wake(entry, log=False)

    def _log_record(self, payload: Dict[str, Any]) -> None:
        wal = self._wal_provider()
        if wal is not None:
            wal.log_queryscale(payload)

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
        total += deep_size_of(self._term_wakers, memo)
        total += deep_size_of(self._doc_wakers, memo)
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
            "repro_queries_hibernated": float(self.hibernated_count),
            "repro_queries_dedup_saved": float(subscribed - self.canonical_count),
            "repro_queries_hibernations_total": float(self.hibernations_total),
            "repro_queries_wakes_total": float(self.wakes_total),
            "repro_query_bytes_resident": float(total_bytes),
            "repro_query_bytes_per_query": float(per_query),
        }

    # ------------------------------------------------------------------ #
    # snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict[str, Any]:
        """The manager's JSON-compatible checkpoint envelope.

        Awake canonical queries live in the *engine* snapshot; this
        envelope adds the fan-out map, the event clock, the allocation
        counters, and the full record (query + shard + stored top-k) of
        every hibernated canonical.
        """
        canonicals: List[Dict[str, Any]] = []
        for canonical_id in sorted(self._canonicals):
            entry = self._canonicals[canonical_id]
            record: Dict[str, Any] = {
                "query_id": canonical_id,
                "last_change": entry.last_change,
                "hibernated": entry.hibernated,
                "shard": entry.shard,
            }
            if entry.hibernated:
                record["query"] = query_record(entry.query)
                record["entries"] = [
                    [result_entry.doc_id, result_entry.score]
                    for result_entry in entry.stored_entries or ()
                ]
            canonicals.append(record)
        return {
            "version": STATE_VERSION,
            "events": self._events,
            "next_subscriber_id": self._next_subscriber_id,
            "next_query_id": self.engine.registry.peek_next_id(),
            "hibernations_total": self.hibernations_total,
            "wakes_total": self.wakes_total,
            "subscribers": [
                [subscriber_id, canonical_id, self._texts.get(subscriber_id)]
                for subscriber_id, canonical_id in sorted(self._subscribers.items())
            ],
            "canonicals": canonicals,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Rebuild the manager from :meth:`snapshot_state` output.

        Must run *after* the engine restore: awake canonicals are looked
        up in the engine registry (and re-compacted); hibernated ones are
        reconstructed here and stay off the engine.
        """
        from repro.persistence import _query_from_record  # shared WAL/snapshot codec

        self._events = int(state.get("events", 0))
        self._next_subscriber_id = int(state.get("next_subscriber_id", 0))
        self.hibernations_total = int(state.get("hibernations_total", 0))
        self.wakes_total = int(state.get("wakes_total", 0))
        self.engine.registry.reserve_ids(int(state.get("next_query_id", 0)))
        for record in state.get("canonicals", []):
            canonical_id = int(record["query_id"])
            if record.get("hibernated"):
                query = _query_from_record(record["query"])
            else:
                query = self.engine.registry.get(canonical_id)
            if self.options.compact_weights:
                self.terms.compact_query(query)
            entry = CanonicalQuery(query, record.get("shard"))
            entry.last_change = int(record.get("last_change", 0))
            self._canonicals[canonical_id] = entry
            self._by_key[canonical_key(query)] = canonical_id
            if record.get("hibernated"):
                entry.hibernated = True
                self.hibernated_count += 1
                entry.stored_entries = [
                    ResultEntry(doc_id=int(doc_id), score=float(score))
                    for doc_id, score in record.get("entries", [])
                ]
                for term_id in query.weights.keys():
                    self._term_wakers.setdefault(term_id, set()).add(canonical_id)
                for result_entry in entry.stored_entries:
                    self._doc_wakers.setdefault(result_entry.doc_id, set()).add(
                        canonical_id
                    )
        for subscriber_id, canonical_id, text in state.get("subscribers", []):
            self._subscribers[int(subscriber_id)] = int(canonical_id)
            self._texts[int(subscriber_id)] = text
            insort(self._canonicals[int(canonical_id)].subscribers, int(subscriber_id))

    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Validate the fan-out and wake indexes (tests only)."""
        for subscriber_id, canonical_id in self._subscribers.items():
            entry = self._canonicals[canonical_id]
            assert subscriber_id in entry.subscribers
        for canonical_id, entry in self._canonicals.items():
            assert entry.subscribers, f"canonical {canonical_id} has no subscribers"
            assert self._by_key[canonical_key(entry.query)] == canonical_id
            if entry.hibernated:
                assert canonical_id not in self.engine.registry
                assert entry.stored_entries is not None
            else:
                assert canonical_id in self.engine.registry
        assert self.hibernated_count == sum(
            1 for entry in self._canonicals.values() if entry.hibernated
        ), "hibernated count out of sync"
        for listeners in self._term_wakers.values():
            for canonical_id in listeners:
                assert self._canonicals[canonical_id].hibernated
        for listeners in self._doc_wakers.values():
            for canonical_id in listeners:
                assert self._canonicals[canonical_id].hibernated
