"""The output check: a brute-force reference for the service's answers.

The benchmark keeps its own log of what it fed the service -- the id and
arrival time of every document, in order -- and from that log alone it
works out which documents must be in the final window.  The *analysed*
form of those documents (term weights) is taken from the service's window,
because analysis is the program's job; everything after that -- scoring
each document against each subscription, ranking, cutting at ``k`` -- is
recomputed here with no code shared with the engine.

Ranking is the total order "score descending, then document id".  Real
ties are common (cosine weights of single-occurrence terms coincide for
documents of equal length) and a top-k that swaps two documents of equal
score is an equally correct answer, so results are compared by position on
*score*, and every reported ``(document, score)`` pair is checked against
the recomputed score of that document.  Summation order can differ from the
engine's by an ulp, hence the tolerance.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "SCORE_TOLERANCE",
    "expected_window_ids",
    "build_postings",
    "score_all",
    "rank",
    "result_matches",
    "count_mismatches",
    "count_differences",
]

SCORE_TOLERANCE = 1e-12

#: a ranked result as plain data: ``[(doc_id, score), ...]``, best first
Ranked = List[Tuple[int, float]]


def expected_window_ids(
    times: Sequence[float], count: int = 0, span: float = 0.0, now: float = 0.0
) -> List[int]:
    """Ids that must be valid once the documents arrived at ``times``.

    ``times[doc_id]`` is when the document was handed over, ids ascending
    in arrival order.  A count window keeps the last ``count`` arrivals; a
    time window keeps those with ``now - time < span``.
    """
    if count:
        return list(range(max(0, len(times) - count), len(times)))
    return [doc_id for doc_id, time in enumerate(times) if now - time < span]


def score_all(
    weights: Mapping[int, float], postings: Mapping[int, List[Tuple[int, float]]]
) -> Dict[int, float]:
    """The score of every window document sharing a term with the query.

    ``postings`` maps a term id to the ``(doc_id, weight)`` pairs of every
    window document containing it; documents sharing no term score zero
    and are never reported.
    """
    scores: Dict[int, float] = {}
    for term_id, query_weight in weights.items():
        for doc_id, doc_weight in postings.get(term_id, ()):
            scores[doc_id] = scores.get(doc_id, 0.0) + query_weight * doc_weight
    return scores


def rank(scores: Mapping[int, float], k: int) -> Ranked:
    """The top ``k`` of ``scores``: score descending, then document id."""
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]


def build_postings(window: Iterable[Any]) -> Dict[int, List[Tuple[int, float]]]:
    """Term id -> ``(doc_id, weight)`` pairs over the service's window."""
    postings: Dict[int, List[Tuple[int, float]]] = {}
    for streamed in window:
        doc_id = streamed.doc_id
        for term_id, weight in streamed.composition.weights.items():
            postings.setdefault(term_id, []).append((doc_id, weight))
    return postings


def result_matches(reported: Ranked, expected: Ranked, scores: Mapping[int, float]) -> bool:
    """Whether ``reported`` is a correct top-k given the reference ``expected``.

    ``scores`` holds the recomputed score of every document that scores
    above zero for this query.
    """
    if len(reported) != len(expected):
        return False
    if len({doc_id for doc_id, _ in reported}) != len(reported):
        return False
    for (doc_id, score), (_, expected_score) in zip(reported, expected):
        if abs(score - expected_score) > SCORE_TOLERANCE:
            return False
        if abs(scores.get(doc_id, -1.0) - score) > SCORE_TOLERANCE:
            return False
    return True


def count_mismatches(
    queries: Mapping[int, Tuple[Mapping[int, float], int]],
    results: Mapping[int, Ranked],
    window: Iterable[Any],
    expected_ids: Sequence[int],
) -> int:
    """How many subscriptions report something other than a correct top-k.

    ``queries`` maps a subscription id to its ``(term weights, k)``;
    ``results`` to what the service reported for it.  If the window does
    not hold exactly ``expected_ids`` every subscription counts as wrong:
    no answer over the wrong documents can be trusted.
    """
    window = list(window)
    if sorted(streamed.doc_id for streamed in window) != sorted(expected_ids):
        return len(queries)
    postings = build_postings(window)
    wrong = 0
    for query_id, (weights, k) in queries.items():
        scores = score_all(weights, postings)
        if not result_matches(results.get(query_id, []), rank(scores, k), scores):
            wrong += 1
    return wrong


def count_differences(before: Mapping[int, Ranked], after: Mapping[int, Ranked]) -> int:
    """How many subscriptions differ between two result sets (tie-tolerant).

    Used for "recovered = pre-crash": the same subscriptions, and at every
    rank the same score.
    """
    wrong = sum(1 for query_id in after if query_id not in before)
    for query_id, ranked in before.items():
        other = after.get(query_id)
        if other is None or len(other) != len(ranked):
            wrong += 1
        elif any(abs(a[1] - b[1]) > SCORE_TOLERANCE for a, b in zip(ranked, other)):
            wrong += 1
    return wrong
