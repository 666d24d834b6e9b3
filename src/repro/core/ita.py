"""Per-query state of the Incremental Threshold Algorithm.

Each installed query owns an :class:`ITAQueryState`, which bundles

* the result container ``R`` (verified top-k documents plus the extra
  unverified documents kept for incremental maintenance),
* the per-term *local thresholds* ``theta_{Q,t}``,
* the *influence threshold* ``tau = sum_t w_{Q,t} * theta_{Q,t}``,

and implements the maintenance logic of Section III of the paper:

* :meth:`initialise` -- the initial top-k search (an adapted threshold
  algorithm, delegated to :func:`repro.core.descent.threshold_descent` or
  to the storage backend's fused equivalent),
  followed by the registration of the local thresholds in the per-list
  threshold trees; :meth:`install` is its restore-time twin, which takes a
  state :meth:`export` recorded instead of searching;
* :meth:`handle_arrival` -- scoring of a potentially affected arriving
  document, insertion into ``R``, and, when the document enters the top-k,
  the *roll-up* of local thresholds that shrinks the monitored region of
  the term-frequency space;
* :meth:`handle_expiration` -- removal of an expiring document from ``R``
  and, when it was part of the reported top-k, the incremental *refill*
  that resumes the threshold search from the recorded local thresholds.

The invariants INV-COVER and INV-REACH documented in DESIGN.md tie these
pieces together; :meth:`check_invariants` asserts them and is exercised by
the property tests.
"""

from __future__ import annotations

from itertools import filterfalse
from math import isfinite
from operator import lt, neg
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.descent import ProbeOrder, threshold_descent
from repro.documents.document import StreamedDocument
from repro.exceptions import ConfigurationError
from repro.index.inverted_index import InvertedIndex
from repro.observability.opcounters import OperationCounters
from repro.query.query import ContinuousQuery
from repro.query.result import ResultEntry, ResultList

__all__ = ["ITAQueryState", "state_values"]


class ITAQueryState:
    """The ITA bookkeeping for one continuous query.

    Parameters
    ----------
    enable_rollup:
        When ``True`` (the paper's design) an arrival that enters the top-k
        rolls up the local thresholds to shrink the monitored region.  When
        ``False`` the thresholds are only ever lowered by refills, never
        raised -- the design-choice ablation that measures what roll-up
        buys (it still produces correct results, but the monitored region
        grows and more future updates must be processed).
    probe_order:
        Which list-selection strategy the threshold descents use (see
        :class:`repro.core.descent.ProbeOrder`).
    """

    __slots__ = (
        "query", "index", "counters", "results", "thresholds", "tau",
        "enable_rollup", "probe_order", "_scratch",
    )

    def __init__(
        self,
        query: ContinuousQuery,
        index: InvertedIndex,
        counters: Optional[OperationCounters] = None,
        enable_rollup: bool = True,
        probe_order: ProbeOrder = ProbeOrder.WEIGHTED,
    ) -> None:
        self.query = query
        self.index = index
        self.counters = counters if counters is not None else OperationCounters()
        self.results = ResultList()
        #: local thresholds theta_{Q,t}, one per query term
        self.thresholds: Dict[int, float] = {term_id: 0.0 for term_id in query.weights}
        #: influence threshold tau
        self.tau = 0.0
        self.enable_rollup = enable_rollup
        self.probe_order = probe_order
        #: storage-backend scratch area (e.g. the columnar batch kernel's
        #: roll-up candidate cache); derived state, never snapshotted
        self._scratch = None

    # ------------------------------------------------------------------ #
    # registration / termination
    # ------------------------------------------------------------------ #
    def initialise(self) -> None:
        """Compute the initial top-k result and register the thresholds.

        The terms are watched first (their trees created), then searched:
        a storage backend may build a term's list only once it is watched.
        The search is the backend's fused descent when it has one
        (:meth:`~repro.index.backend.StorageBackend.descent_kernel`) and
        the reference :func:`~repro.core.descent.threshold_descent`
        otherwise, as for the round-robin ablation; results, thresholds,
        tau and counters are the same either way.
        """
        index = self.index
        trees = [index.threshold_tree(term_id) for term_id in self.query.weights]
        descent = index.backend.descent_kernel()
        if descent is not None and self.probe_order is ProbeOrder.WEIGHTED:
            self.thresholds, self.tau = descent(self)
        else:
            outcome = threshold_descent(
                self.query,
                index,
                self.results,
                start_thresholds=None,
                counters=self.counters,
                probe_order=self.probe_order,
            )
            self.thresholds = outcome.thresholds
            self.tau = outcome.tau
        query_id = self.query.query_id
        for term_id, tree in zip(self.query.weights, trees):
            tree.register(query_id, self.thresholds[term_id])

    def export(self) -> Dict[str, Any]:
        """This query's state as a snapshot records it.

        ``tau``, the local thresholds in the query's term order, and ``R``
        -- unverified entries included -- in rank order as parallel
        ``ids`` / ``scores``: exactly what :meth:`install` takes back.
        """
        ordered = self.results._ordered._items
        thresholds = self.thresholds
        return {
            "tau": self.tau,
            "thresholds": [thresholds[term_id] for term_id in self.query.weights],
            "ids": [doc_id for _, doc_id in ordered],
            "scores": [-negative_score for negative_score, _ in ordered],
        }

    def install(self, record: Mapping[str, Any]) -> None:
        """Take the state :meth:`export` recorded instead of searching.

        The restore-time twin of :meth:`initialise`: the terms are watched
        and the thresholds registered the same way, and ``R`` is filled in
        its recorded rank order -- no posting is read and no score
        computed, so the query resumes exactly where the recorded one
        stood, ties included.  The record is checked before anything
        changes; one this query cannot be in over the current window
        raises :class:`~repro.exceptions.ConfigurationError` naming it.
        """
        query = self.query
        tau, thresholds, ids, scores = state_values(query.query_id, record)
        pairs = list(zip(map(neg, scores), ids))
        problem = _state_problem(query, tau, thresholds, ids, scores, pairs, self.index.documents)
        if problem is not None:
            raise ConfigurationError(f"query {query.query_id}: the recorded state {problem}")
        self.thresholds = dict(zip(query.weights, thresholds))
        self.tau = tau
        self.results.fill(pairs)
        for term_id, threshold in self.thresholds.items():
            self.index.threshold_tree(term_id).register(query.query_id, threshold)

    def detach(self) -> None:
        """Remove this query's entries from every threshold tree.

        A tree this leaves empty is unwatched: no query has the term any
        more (:meth:`~repro.index.inverted_index.InvertedIndex.unwatch`).
        """
        for term_id in self.query.weights:
            tree = self.index.existing_tree(term_id)
            if tree is not None and self.query.query_id in tree:
                tree.unregister(self.query.query_id)
                if not len(tree):
                    self.index.unwatch(term_id)

    # ------------------------------------------------------------------ #
    # reported result
    # ------------------------------------------------------------------ #
    def top_k(self) -> List[ResultEntry]:
        """The currently reported top-k documents (best first)."""
        return self.results.top(self.query.k)

    def s_k(self) -> float:
        """``S_k``: the k-th best score (0.0 when fewer than k documents)."""
        return self.results.kth_score(self.query.k)

    # ------------------------------------------------------------------ #
    # arrival handling (Section III-B, first half)
    # ------------------------------------------------------------------ #
    def handle_arrival(self, document: StreamedDocument) -> None:
        """Process an arriving document that may affect this query.

        The engine calls this at most once per arriving document (even if
        the document rose above the local threshold in several of the
        query's lists).  The document's impact entries are already in the
        inverted lists.
        """
        score = self.query.score(document.composition)
        self.counters.scores_computed += 1
        if score <= 0.0:
            # No common terms with positive weight: cannot affect the query
            # and must not pollute R (it would violate INV-REACH).
            return
        s_k_before = self.s_k()
        self.results.add(document.doc_id, score)
        if score > s_k_before and self.enable_rollup:
            # The document enters the top-k result; S_k has (weakly)
            # increased, so try to shrink the monitored region.
            self._roll_up()

    # ------------------------------------------------------------------ #
    # expiration handling (Section III-B, second half)
    # ------------------------------------------------------------------ #
    def handle_expiration(self, doc_id: int) -> None:
        """Process the expiration of a document that may affect this query.

        The document's impact entries have already been deleted from the
        inverted lists; its score, if it ever mattered to this query, is
        stored in ``R`` ("we know its score S(d|Q); it is stored in R, so
        we do not need to calculate it anew").
        """
        score = self.results.get(doc_id)
        if score is None:
            # The document was never covered by this query (it may merely
            # tie with a local threshold): nothing to maintain.
            return
        s_k_before = self.s_k()
        self.results.remove(doc_id)
        if score >= s_k_before:
            # The expired document was part of the reported top-k (or tied
            # with its boundary): refill the result incrementally.
            self._refill()

    # ------------------------------------------------------------------ #
    # roll-up (arrival of a document that entered the top-k)
    # ------------------------------------------------------------------ #
    def _roll_up(self) -> None:
        """Raise local thresholds while ``tau`` stays at or below ``S_k``.

        Each step lifts the threshold of the list with the smallest
        ``w_{Q,t} * c_t``, where ``c_t`` is the weight of the entry just
        above the current local threshold in ``L_t`` ("the ct values are
        defined by the preceding entry").  The step is applied only if the
        resulting ``tau`` does not exceed the new ``S_k``; otherwise the
        roll-up stops.  Finally, documents that dropped below all local
        thresholds are evicted from ``R``.
        """
        s_k = self.s_k()
        if s_k <= 0.0:
            return
        query_weights = self.query.weights
        rolled = False
        while True:
            best_term: Optional[int] = None
            best_candidate = 0.0
            best_value = float("inf")
            for term_id, query_weight in query_weights.items():
                inverted_list = self.index.existing_list(term_id)
                if inverted_list is None:
                    continue
                entry = inverted_list.next_weight_above(self.thresholds[term_id])
                if entry is None:
                    continue
                value = query_weight * entry.weight
                if value < best_value:
                    best_value = value
                    best_term = term_id
                    best_candidate = entry.weight
            if best_term is None:
                break
            query_weight = query_weights[best_term]
            new_tau = self.tau + query_weight * (best_candidate - self.thresholds[best_term])
            if new_tau > s_k:
                break
            self.thresholds[best_term] = best_candidate
            self.tau = new_tau
            self.index.threshold_tree(best_term).register(self.query.query_id, best_candidate)
            self.counters.rollup_steps += 1
            rolled = True
        if rolled:
            self._evict_uncovered()

    def _evict_uncovered(self) -> None:
        """Drop from ``R`` the documents below all local thresholds.

        A document is evicted when every query term it actually contains
        has a weight strictly below the corresponding local threshold --
        such a document can no longer reach the top-k (its score is
        strictly below ``tau <= S_k``) and, more importantly, its eventual
        expiration would not be routed to this query by the threshold
        trees, so keeping it would leave a stale entry behind (INV-REACH).
        """
        to_evict: List[int] = []
        # Only entries with score < tau can be uncovered: score >= tau
        # implies at least one per-term weight at or above its threshold.
        for entry in self.results.entries_below(self.tau):
            document = self.index.documents.get(entry.doc_id)
            composition = document.composition
            covered = False
            for term_id in self.query.weights:
                weight = composition.weight(term_id)
                if weight > 0.0 and weight >= self.thresholds[term_id]:
                    covered = True
                    break
            if not covered:
                to_evict.append(entry.doc_id)
        for doc_id in to_evict:
            self.results.remove(doc_id)
            self.counters.result_evictions += 1

    # ------------------------------------------------------------------ #
    # refill (expiration of a top-k document)
    # ------------------------------------------------------------------ #
    def _refill(self) -> None:
        """Resume the threshold search from the recorded local thresholds."""
        # Fast path: if k documents of R still score at least the recorded
        # influence threshold, the certificate already holds and no list
        # needs to be touched (the expired document simply left more than
        # k verified documents behind).
        if self.results.count_at_or_above(self.tau) >= self.query.k:
            return
        self.counters.refills += 1
        outcome = threshold_descent(
            self.query,
            self.index,
            self.results,
            start_thresholds=self.thresholds,
            counters=self.counters,
            probe_order=self.probe_order,
        )
        query_id = self.query.query_id
        for term_id, new_threshold in outcome.thresholds.items():
            if new_threshold != self.thresholds[term_id]:
                self.index.threshold_tree(term_id).register(query_id, new_threshold)
        self.thresholds = outcome.thresholds
        self.tau = outcome.tau

    # ------------------------------------------------------------------ #
    # invariants (exercised by the test suite)
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Assert INV-COVER, INV-REACH, score exactness and tau consistency."""
        query = self.query
        # tau consistency
        expected_tau = sum(
            weight * self.thresholds.get(term_id, 0.0)
            for term_id, weight in query.weights.items()
        )
        assert abs(expected_tau - self.tau) < 1e-9, "tau out of sync with local thresholds"

        # threshold trees agree with the stored thresholds
        for term_id in query.weights:
            tree = self.index.existing_tree(term_id)
            assert tree is not None, f"missing threshold tree for term {term_id}"
            assert tree.get(query.query_id) == self.thresholds[term_id], (
                "threshold tree out of sync"
            )

        # INV-COVER: every valid document strictly above a local threshold
        # in some query list is present in R with its exact score.
        for document in self.index.documents:
            composition = document.composition
            score = query.score(composition)
            above = any(
                composition.weight(term_id) > self.thresholds[term_id]
                for term_id in query.weights
                if composition.weight(term_id) > 0.0
            )
            if above:
                stored = self.results.get(document.doc_id)
                assert stored is not None, (
                    f"INV-COVER violated: document {document.doc_id} missing from R"
                )
                assert abs(stored - score) < 1e-9, "stored score is stale"

        # INV-REACH and score exactness for every member of R.
        for entry in self.results:
            document = self.index.documents.find(entry.doc_id)
            assert document is not None, f"R contains expired document {entry.doc_id}"
            composition = document.composition
            assert abs(query.score(composition) - entry.score) < 1e-9, "stale score in R"
            reachable = any(
                composition.weight(term_id) > 0.0
                and composition.weight(term_id) >= self.thresholds[term_id]
                for term_id in query.weights
            )
            assert reachable, (
                f"INV-REACH violated: document {entry.doc_id} in R but below all thresholds"
            )

        # The reported top-k is correct: no valid document outside R may
        # beat the k-th reported score (strictly).
        top = self.top_k()
        if top:
            boundary = top[-1].score if len(top) >= query.k else 0.0
            for document in self.index.documents:
                if document.doc_id in self.results:
                    continue
                score = query.score(document.composition)
                assert score <= boundary + 1e-9, (
                    f"document {document.doc_id} outside R beats the reported top-k"
                )


def state_values(
    query_id: int, record: Mapping[str, Any]
) -> Tuple[float, List[float], List[int], List[float]]:
    """A recorded state's ``tau``, thresholds, R ids and R scores as numbers;
    a record without them raises :class:`~repro.exceptions.ConfigurationError`
    naming query ``query_id``.  Only the types are checked here: what the
    values must satisfy is :meth:`ITAQueryState.install`'s to check."""
    try:
        return (
            float(record["tau"]),
            list(map(float, record["thresholds"])),
            list(map(int, record["ids"])),
            list(map(float, record["scores"])),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(f"query {query_id}: malformed recorded state ({error!r})") from None


def _state_problem(query, tau, thresholds, ids, scores, pairs, documents) -> Optional[str]:
    """What makes a recorded state one ``query`` cannot be in, or ``None``.

    ``pairs`` are ``R``'s ``(-score, doc_id)`` in recorded order, and
    ``documents`` the valid documents' store.
    """
    if len(thresholds) != len(query.weights):
        return f"has {len(thresholds)} thresholds for {len(query.weights)} terms"
    values = (tau, *thresholds)
    if not all(map(isfinite, values)) or min(values) < 0.0:
        return "has a negative or non-finite tau or threshold"
    if len(ids) != len(scores):
        return "has R ids and scores of different lengths"
    if not all(map(isfinite, scores)) or min(scores, default=0.0) < 0.0:
        return "has a negative or non-finite score in R"
    if not all(map(lt, pairs, pairs[1:])):
        return "lists R out of rank order"
    if len(set(ids)) != len(ids):
        return "repeats a document in R"
    missing = next(filterfalse(documents.__contains__, ids), None)
    if missing is not None:
        return f"keeps document {missing} in R, which is not in the window"
    return None
