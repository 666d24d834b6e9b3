"""The fused kernels of the columnar backend.

:func:`columnar_batch_events` is what
:meth:`repro.core.engine.ITAEngine.process_batch_events` dispatches to
when the engine was built with ``storage="columnar"``.  It plays the role
of the engine's per-event batch path but fuses the work along two axes:

* **Virtual cold terms.**  With the columnar backend the index keeps
  lists only for *watched* terms (terms with a threshold tree, or promoted
  by an explicit ordered read); for every other term it records which
  documents brought it.  Since threshold probes, roll-up candidates and
  descents only ever read watched terms, the kernel's per-event work for
  the typically dominant share of unwatched terms is one list append per
  arrival and nothing per expiration.  The appends follow the index's
  one rule (:func:`repro.index.inverted_index.record_cold`): a record
  looks at its head for expired documents only when an append brings its
  length to a multiple of 16.

* **Fused handlers.**  For watched terms the substrate maintenance is
  fused with the threshold-tree probes, and the per-query handlers
  themselves -- arrival scoring, result insertion, roll-up (with per-call
  candidate caching), eviction, the expiration fast path and the resumed
  threshold descent -- are inlined straight over the raw columns and the
  result containers' flat storage, eliminating the per-event entry
  objects, method dispatch and attribute traffic of the sequential path.

Bit-identity contract: every floating-point operation happens in exactly
the order of the sequential path (:mod:`repro.core.ita` /
:mod:`repro.core.descent` / :mod:`repro.weighting.schemes`), and all
state transitions (R membership, thresholds, tau, counters) are
reproduced exactly.  Two deviations are *provably* invisible:

* Roll-up caches each term's candidate (``next_weight_above``) within one
  roll-up call.  The inverted lists do not change during a roll-up and
  only the stepped term's threshold moves, so only that term's cached
  candidate is invalidated -- every step still scans the terms in the
  same order over the same values.
* The descent (:func:`columnar_descent`, the kernel's refill stage and
  -- started from the top of the lists -- the initial search of a newly
  registered query) holds cursor state in parallel lists instead of
  :class:`~repro.core.descent._ListCursor` objects; positions, ceilings
  and priorities take exactly the values the cursor objects would hold
  (a posting weight is strictly positive, so ``ceiling == 0.0`` is
  equivalent to cursor exhaustion), and ``tau`` is recomputed as the same
  ordered sum after every consumed entry.

The kernel skips the input-validation branches of the container methods
(duplicate postings, non-positive weights, deletes of unknown documents):
those states are unreachable through the engine, whose document store
rejects duplicate arrivals and whose compositions validate their weights
at construction.  The containers keep the checks for direct API use.

Change collection: a reported top-k moves only where a ``(-score, doc_id)``
pair crosses position ``k`` of the ordered view, so each such site adds the
pair to ``moves[query_id]`` (+1 entered, -1 left) and an untouched top-k costs
nothing.  Sites: an arrival landing at a position below ``k`` (it enters,
``ordered[k]`` leaves); an expiration at one (it leaves; with the certificate
intact ``ordered[k - 1]`` enters); a descent, diffed against what is left of
the *reported* prefix -- not the post-removal one: the pair that slid up into
position ``k - 1`` was in R but not reported, and the descent may admit a tie
that outranks it by id.  Evictions sit under ``tau <= S_k``.  Pairs that net
to zero over the event cancel; the rest, sorted, are the event's changes.

With observability on (read once per batch) the kernel laps ``perf_counter``
at its stage boundaries: six self times that sum to the batch's wall time,
flushed per batch to ``repro_engine_stage_ms_total``.  Queries running the
round-robin probe-order ablation fall back to the state's own refill.

This module deliberately imports nothing from :mod:`repro.core` at module
level (the engine object is supplied at call time), keeping the index
layer import-cycle free.
"""

from __future__ import annotations

from bisect import bisect_left as _bisect_left, bisect_right as _bisect_right, insort as _insort
from collections import defaultdict
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from time import perf_counter as _perf_counter
from typing import Dict, List, Sequence

from repro.index.inverted_index import record_cold as _record_cold
from repro.observability import runtime as _obs

__all__ = ["columnar_batch_events", "columnar_descent"]

_INFINITY = float("inf")


def columnar_descent(state, start_thresholds=None):
    """The threshold descent of Section III-A over the raw columns.

    The counterpart of :func:`repro.core.descent.threshold_descent` in
    weighted probe order: from the top of the lists when
    ``start_thresholds`` is ``None`` (the initial search), otherwise
    resumed from the recorded local thresholds, inclusive (entries tied
    with a threshold may not have been read before).  Scores unseen
    documents into ``state.results``, adds the postings read and scores
    computed to ``state.counters`` and returns ``(thresholds, tau)``; the
    caller records them and updates the threshold trees.

    Every term of the query must be watched, so its list exists and is
    ordered.
    """
    if (
        start_thresholds is not None
        and state.tau == 0.0
        and not any(start_thresholds.values())
    ):
        # Exhausted steady state: at threshold 0.0 the ordered read
        # starts past the end of every list, so each ceiling stays 0.0 --
        # the descent would consume nothing and leave tau at 0.0.
        return start_thresholds, 0.0
    query = state.query
    query_weights = query._weights
    k = query.k
    results = state.results
    scores_map = results._scores
    ordered_items = results._ordered._items
    index = state.index
    lists = index._lists
    # Phase 1: positions and ceilings only.  Most descents terminate on
    # their very first verified check, so the full cursor state (column
    # references, priorities) is only built when that check fails.
    cursor_pos: list = []
    cursor_ceiling: list = []
    tau = 0.0
    live = False
    for cursor_term, query_weight in query_weights.items():
        target_list = lists[cursor_term]
        list_negw = target_list._negw
        if start_thresholds is None:
            position = 0
        else:
            position = _bisect_left(list_negw, -start_thresholds[cursor_term])
        if position < len(list_negw):
            ceiling = -list_negw[position]
            live = True
        else:
            ceiling = 0.0
        cursor_pos.append(position)
        cursor_ceiling.append(ceiling)
        tau += query_weight * ceiling
    # With every cursor exhausted the descent can consume nothing -- the
    # verified check and the consume loop are both no-ops.
    if live and _bisect_right(ordered_items, (-tau, _INFINITY)) < k:
        # Phase 2: the certificate failed -- materialise the full
        # per-term cursor state and consume postings.
        store_docs = index.documents._documents
        query_len = len(query_weights)
        cursor_qw = list(query_weights.values())
        cursor_negw = [lists[cursor_term]._negw for cursor_term in query_weights]
        cursor_ids = [lists[cursor_term]._ids for cursor_term in query_weights]
        cursor_prio = [
            query_weight * ceiling
            for query_weight, ceiling in zip(cursor_qw, cursor_ceiling)
        ]
        n_cursors = len(cursor_qw)
        postings_scanned = scores_computed = 0
        while True:
            best_index = -1
            best_prio = 0.0
            for cursor_index in range(n_cursors):
                if cursor_ceiling[cursor_index] == 0.0:
                    continue  # exhausted
                priority = cursor_prio[cursor_index]
                if best_index < 0 or priority > best_prio:
                    best_prio = priority
                    best_index = cursor_index
            if best_index < 0:
                break  # every list exhausted
            list_negw = cursor_negw[best_index]
            position = cursor_pos[best_index]
            entry_doc = cursor_ids[best_index][position]
            postings_scanned += 1
            position += 1
            ceiling = -list_negw[position] if position < len(list_negw) else 0.0
            cursor_pos[best_index] = position
            cursor_ceiling[best_index] = ceiling
            cursor_prio[best_index] = cursor_qw[best_index] * ceiling
            if entry_doc not in scores_map:
                entry_weights = store_docs[entry_doc].document.composition._raw
                # dot product: iterate the smaller mapping (same sum
                # order as repro.weighting.schemes.dot_product)
                if len(entry_weights) < query_len:
                    small, large = entry_weights, query_weights
                else:
                    small, large = query_weights, entry_weights
                large_get = large.get
                entry_score = 0.0
                for small_term, small_weight in small.items():
                    other = large_get(small_term)
                    if other is not None:
                        entry_score += small_weight * other
                scores_computed += 1
                scores_map[entry_doc] = entry_score
                _insort(ordered_items, (-entry_score, entry_doc))
            tau = 0.0
            for priority in cursor_prio:
                tau += priority
            if _bisect_right(ordered_items, (-tau, _INFINITY)) >= k:
                break
        counters = state.counters
        counters.postings_scanned += postings_scanned
        counters.scores_computed += scores_computed
    return dict(zip(query_weights, cursor_ceiling)), tau


def _weight_above(target_list, threshold):
    """A roll-up candidate: the weight just above ``threshold`` in
    ``target_list`` (``None`` without one), and the list's mutation count."""
    if target_list is None:
        return None, 0
    list_negw = target_list._negw
    # Stored weights are positive: the probe point of threshold 0.0 is the end.
    position = len(list_negw) if threshold == 0.0 else _bisect_left(list_negw, -threshold)
    if position == 0:
        return None, target_list._mutations
    return -list_negw[position - 1], target_list._mutations


def columnar_batch_events(engine, documents: Sequence) -> List[list]:
    """Process ``documents`` in one fused loop over the columnar state.

    Produces exactly the same engine state, counters and per-event change
    lists as calling ``engine.process`` once per document.
    """
    observed = _obs.active
    mark = _perf_counter() if observed else 0.0
    t_expire = t_arrival = t_rollup = t_evict = t_descent = t_collect = 0.0

    from repro.core.base import ResultChange, new_value
    from repro.core.descent import ProbeOrder
    from repro.query.result import ResultEntry

    weighted_order = ProbeOrder.WEIGHTED
    counters = engine.counters
    index = engine.index
    lists = index._lists
    lists_get = lists.get
    trees = index._trees
    store = index.documents
    store_docs = store._documents
    cold = index._cold
    states = engine._states
    window_insert = engine.window.insert
    track = engine.track_changes
    infinity = _INFINITY

    arrivals = expirations = inserted = deleted = probes = candidates = 0
    scores_computed = rollup_steps = result_evictions = refills = 0
    per_event: List[list] = []

    try:
        for document in documents:
            arrivals += 1
            # query id -> pair -> net crossings of position k (+1 in, -1 out)
            moves: Dict[int, dict] = defaultdict(dict)

            # -- expirations caused by this arrival ------------------------- #
            for expired_document in window_insert(document):
                expirations += 1
                doc_id = expired_document.doc_id
                store.remove(doc_id)
                affected = set()
                update_affected = affected.update
                document_raw = expired_document.composition._raw
                # Cold terms (no list) need no work at all: their records drop
                # expired documents lazily.  One C-level key intersection
                # replaces the per-term dictionary misses.
                deleted += len(document_raw)
                for term_id in document_raw.keys() & lists.keys():
                    weight = document_raw[term_id]
                    inverted_list = lists[term_id]
                    # inline ColumnarInvertedList.delete
                    weights_map = inverted_list._weights
                    del weights_map[doc_id]
                    negw_col = inverted_list._negw
                    ids_col = inverted_list._ids
                    position = _bisect_left(negw_col, -weight)
                    while ids_col[position] != doc_id:
                        position += 1
                    del negw_col[position]
                    del ids_col[position]
                    inverted_list._mutations += 1
                    tree = inverted_list._tree
                    if tree is None:
                        if not weights_map:
                            # Unwatched and empty: back to virtual-cold.
                            del lists[term_id]
                    else:
                        probes += 1
                        prefix = _bisect_right(tree._thr, weight)
                        if prefix:
                            update_affected(tree._qid[:prefix])
                candidates += len(affected)
                for query_id in affected:
                    state = states[query_id]
                    # inline ITAQueryState.handle_expiration
                    results = state.results
                    scores_map = results._scores
                    score = scores_map.get(doc_id)
                    if score is None:
                        continue
                    ordered_items = results._ordered._items
                    query = state.query
                    k = query.k
                    if len(ordered_items) >= k:
                        s_k_before = -ordered_items[k - 1][0]
                    else:
                        s_k_before = 0.0
                    del scores_map[doc_id]
                    pair = (-score, doc_id)
                    position = _bisect_left(ordered_items, pair)
                    del ordered_items[position]
                    reported = track and position < k
                    if reported:
                        delta = moves[query_id]
                        delta[pair] = delta.get(pair, 0) - 1
                    if score < s_k_before:
                        continue
                    # inline ITAQueryState._refill: verified-count fast path
                    tau = state.tau
                    if _bisect_right(ordered_items, (-tau, infinity)) >= k:
                        if reported:
                            pair = ordered_items[k - 1]
                            delta[pair] = delta.get(pair, 0) + 1
                        continue
                    if track:
                        # what is left of the reported prefix
                        remaining = ordered_items[: k - 1] if reported else ordered_items[:k]
                    if observed:
                        now = _perf_counter()
                        t_expire += now - mark
                        mark = now
                    if state.probe_order is not weighted_order:
                        state._refill()  # round-robin ablation: generic path
                    else:
                        refills += 1
                        thresholds = state.thresholds
                        new_thresholds, tau = columnar_descent(state, thresholds)
                        for term_id, ceiling in new_thresholds.items():
                            if ceiling != thresholds[term_id]:
                                trees[term_id].register(query_id, ceiling)
                        state.thresholds = new_thresholds
                        state.tau = tau
                    if observed:
                        now = _perf_counter()
                        t_descent += now - mark
                        mark = now
                    if track and ordered_items[:k] != remaining:
                        delta = moves[query_id]
                        for pair in remaining:
                            delta[pair] = delta.get(pair, 0) - 1
                        for pair in ordered_items[:k]:
                            delta[pair] = delta.get(pair, 0) + 1
            if observed:
                now = _perf_counter()
                t_expire += now - mark
                mark = now

            # -- the arrival itself ----------------------------------------- #
            doc_id = document.doc_id
            store.add(document)
            composition = document.composition
            affected = set()
            update_affected = affected.update
            document_raw = composition._raw
            inserted += len(document_raw)
            # One C-level key intersection finds the listed terms; the
            # others are cold, and their records take the arrival
            # (InvertedIndex._cold).  Listed terms are inserted in the
            # set's order, which nothing observes: each list is its own
            # and ``affected`` is a set.
            listed = document_raw.keys() & lists.keys()
            if len(listed) < len(document_raw):
                _record_cold(cold, document_raw, listed, doc_id, store_docs)
                if len(cold) > index._cold_limit:
                    index._sweep_cold()
            for term_id in listed:
                weight = document_raw[term_id]
                inverted_list = lists[term_id]
                # inline ColumnarInvertedList.insert
                negw_col = inverted_list._negw
                ids_col = inverted_list._ids
                negative_weight = -weight
                position = _bisect_left(negw_col, negative_weight)
                size = len(ids_col)
                while (
                    position < size
                    and negw_col[position] == negative_weight
                    and ids_col[position] < doc_id
                ):
                    position += 1
                negw_col.insert(position, negative_weight)
                ids_col.insert(position, doc_id)
                inverted_list._weights[doc_id] = weight
                inverted_list._mutations += 1
                tree = inverted_list._tree
                if tree is not None:
                    probes += 1
                    prefix = _bisect_right(tree._thr, weight)
                    if prefix:
                        update_affected(tree._qid[:prefix])
            candidates += len(affected)

            document_weights = composition._raw
            document_terms = len(document_weights)
            for query_id in affected:
                state = states[query_id]
                # inline ITAQueryState.handle_arrival
                query = state.query
                query_weights = query._weights
                # dot product: iterate the smaller mapping (same sum order as
                # repro.weighting.schemes.dot_product)
                if document_terms < len(query_weights):
                    small, large = document_weights, query_weights
                else:
                    small, large = query_weights, document_weights
                large_get = large.get
                score = 0.0
                for term_id, term_weight in small.items():
                    other = large_get(term_id)
                    if other is not None:
                        score += term_weight * other
                scores_computed += 1
                if score <= 0.0:
                    continue
                results = state.results
                ordered_items = results._ordered._items
                k = query.k
                if len(ordered_items) >= k:
                    s_k_before = -ordered_items[k - 1][0]
                else:
                    s_k_before = 0.0
                # R insertion: an arriving document is never already in R
                results._scores[doc_id] = score
                pair = (-score, doc_id)
                _insort(ordered_items, pair)
                if track and (len(ordered_items) <= k or pair < ordered_items[k]):
                    delta = moves[query_id]
                    delta[pair] = 1
                    if len(ordered_items) > k:
                        pair = ordered_items[k]
                        delta[pair] = delta.get(pair, 0) - 1
                if score <= s_k_before or not state.enable_rollup:
                    continue
                # inline ITAQueryState._roll_up
                if len(ordered_items) >= k:
                    s_k = -ordered_items[k - 1][0]
                else:
                    s_k = 0.0
                if s_k <= 0.0:
                    continue
                if observed:
                    now = _perf_counter()
                    t_arrival += now - mark
                    mark = now
                thresholds = state.thresholds
                tau = state.tau
                # Lazy-deletion min-heap over (value, order, term, candidate):
                # the sequential roll-up rescans every term per step and picks
                # the first term (in query order) of strictly least value, so
                # ordering the heap by (value, query-order) reproduces its
                # pick exactly; only the stepped term's candidate ever
                # changes, and stale heap entries are skipped by comparing
                # against the live candidate.
                # A candidate (next weight strictly above the local threshold)
                # depends only on the list's content and the threshold, so it
                # is cached across roll-up invocations in the state's scratch
                # dict, validated by (list identity, mutation count,
                # threshold) -- recomputation is pure reading, so a cache hit
                # is observably indistinguishable from recomputing.
                scratch = state._scratch
                if scratch is None:
                    scratch = {}
                    state._scratch = scratch
                scratch_get = scratch.get
                candidate_cache: Dict[int, float] = {}
                candidate_heap: list = []
                order = 0
                for term_id, query_weight in query_weights.items():
                    target_list = lists_get(term_id)
                    term_threshold = thresholds[term_id]
                    cached = scratch_get(term_id)
                    if (
                        cached is not None
                        and cached[1] is target_list
                        and (target_list is None or cached[2] == target_list._mutations)
                        and cached[3] == term_threshold
                    ):
                        candidate = cached[0]
                    else:
                        candidate, mutations = _weight_above(target_list, term_threshold)
                        scratch[term_id] = (candidate, target_list, mutations, term_threshold)
                    candidate_cache[term_id] = candidate
                    if candidate is not None:
                        candidate_heap.append(
                            (query_weight * candidate, order, term_id, candidate)
                        )
                    order += 1
                _heapify(candidate_heap)
                rolled = False
                while candidate_heap:
                    entry = candidate_heap[0]
                    best_term = entry[2]
                    best_candidate = entry[3]
                    if best_candidate != candidate_cache[best_term]:
                        _heappop(candidate_heap)  # stale: term stepped since
                        continue
                    query_weight = query_weights[best_term]
                    new_tau = tau + query_weight * (best_candidate - thresholds[best_term])
                    if new_tau > s_k:
                        break
                    thresholds[best_term] = best_candidate
                    tau = new_tau
                    trees[best_term].register(query_id, best_candidate)
                    rollup_steps += 1
                    rolled = True
                    _heappop(candidate_heap)
                    target_list = lists_get(best_term)
                    candidate, mutations = _weight_above(target_list, best_candidate)
                    candidate_cache[best_term] = candidate
                    scratch[best_term] = (candidate, target_list, mutations, best_candidate)
                    if candidate is not None:
                        _heappush(
                            candidate_heap,
                            (query_weight * candidate, entry[1], best_term, candidate),
                        )
                state.tau = tau
                if observed:
                    now = _perf_counter()
                    t_rollup += now - mark
                    mark = now
                if not rolled:
                    continue
                # inline ITAQueryState._evict_uncovered
                start = _bisect_right(ordered_items, (-tau, infinity))
                size_ordered = len(ordered_items)
                if start >= size_ordered:
                    continue
                to_evict = []
                for position in range(start, size_ordered):
                    pair = ordered_items[position]
                    candidate_weights = store_docs[pair[1]].document.composition._raw
                    weights_get = candidate_weights.get
                    covered = False
                    # state.thresholds carries exactly the query's terms, and
                    # only the resulting boolean is observable, so iterating
                    # it directly (saving a lookup per term) is invisible.
                    for term_id, term_threshold in thresholds.items():
                        term_weight = weights_get(term_id, 0.0)
                        if term_weight > 0.0 and term_weight >= term_threshold:
                            covered = True
                            break
                    if not covered:
                        to_evict.append(pair)
                scores_map = results._scores
                for pair in to_evict:
                    del scores_map[pair[1]]
                    del ordered_items[_bisect_left(ordered_items, pair)]
                    result_evictions += 1
                if observed:
                    now = _perf_counter()
                    t_evict += now - mark
                    mark = now

            if observed:
                now = _perf_counter()
                t_arrival += now - mark
                mark = now
            # ``moves`` stays empty when the engine does not track changes.
            changes = []
            for query_id in sorted(moves):
                entered = []
                left = []
                for pair, net in sorted(moves[query_id].items()):  # pair order is rank order
                    if net > 0:
                        entered.append(new_value(ResultEntry, (pair[1], -pair[0])))
                    elif net < 0:
                        left.append(new_value(ResultEntry, (pair[1], -pair[0])))
                if entered or left:
                    changes.append(new_value(ResultChange, (query_id, tuple(entered), tuple(left))))
            per_event.append(changes)
            if observed:
                now = _perf_counter()
                t_collect += now - mark
                mark = now
    finally:
        # also on a batch that raises part-way: its applied events count
        counters.arrivals += arrivals
        counters.expirations += expirations
        counters.postings_inserted += inserted
        counters.postings_deleted += deleted
        counters.threshold_probes += probes
        counters.candidate_matches += candidates
        counters.scores_computed += scores_computed
        counters.rollup_steps += rollup_steps
        counters.result_evictions += result_evictions
        counters.refills += refills
        if observed:
            for stage, seconds in (
                ("expire", t_expire), ("arrival", t_arrival), ("rollup", t_rollup),
                ("evict", t_evict), ("descent", t_descent), ("collect", t_collect),
            ):
                _obs.counter_child(
                    "repro_engine_stage_ms_total", "per-stage engine time", "stage", stage
                ).add(seconds * 1000.0)
    return per_event
