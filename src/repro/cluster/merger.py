"""Merging per-shard outputs back into the single-engine API.

The shards of a :class:`~repro.cluster.engine.ShardedEngine` hold disjoint
query sets over identical windows, so merging is a *union*: every query's
result is owned by exactly one shard and can be taken verbatim.  The merger
enforces that disjointness (a query reported by two shards indicates a
corrupted placement map) and restores a deterministic order, so callers see
exactly what a single engine would have produced.

:func:`ResultMerger.top_documents` additionally offers a cluster-level
dashboard view: the globally best documents across every installed query,
deduplicated by document id.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.base import ResultChange, TopKResult, by_query_id
from repro.exceptions import DuplicateQueryError
from repro.query.result import ResultEntry

__all__ = ["ResultMerger"]


class ResultMerger:
    """Combines per-shard result changes and top-k results."""

    @staticmethod
    def merge_changes(per_shard: Iterable[Sequence[ResultChange]]) -> List[ResultChange]:
        """Union of the shards' result changes, ordered by query id.

        Shards emit changes for their own queries only, so the union is a
        plain concatenation; sorting by query id makes the merged order
        independent of the shard count.
        """
        merged: List[ResultChange] = []
        for changes in per_shard:
            merged.extend(changes)
        merged.sort(key=by_query_id)
        return merged

    @staticmethod
    def merge_results(per_shard: Iterable[Dict[int, TopKResult]]) -> Dict[int, TopKResult]:
        """Union of the shards' ``{query_id: top-k}`` mappings.

        Raises :class:`~repro.exceptions.DuplicateQueryError` if two shards
        both claim a query -- the placement invariant is broken.
        """
        merged: Dict[int, TopKResult] = {}
        for results in per_shard:
            for query_id, result in results.items():
                if query_id in merged:
                    raise DuplicateQueryError(
                        f"query id {query_id} is reported by more than one shard"
                    )
                merged[query_id] = result
        return dict(sorted(merged.items()))

    @staticmethod
    def top_documents(results: Dict[int, TopKResult], limit: int) -> List[ResultEntry]:
        """The globally best documents across all queries' results.

        Documents appearing in several queries' top-k are reported once
        with their best score.  Ties break by ascending document id, the
        convention of :class:`~repro.query.result.ResultList`.
        """
        if limit <= 0:
            return []
        best: Dict[int, float] = {}
        for result in results.values():
            for entry in result:
                current = best.get(entry.doc_id)
                if current is None or entry.score > current:
                    best[entry.doc_id] = entry.score
        ranked: List[Tuple[float, int]] = sorted(
            ((-score, doc_id) for doc_id, score in best.items())
        )
        return [ResultEntry(doc_id, -negative_score) for negative_score, doc_id in ranked[:limit]]
