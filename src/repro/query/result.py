"""The per-query result container ``R``.

The paper keeps in ``R`` *all* encountered documents -- the k verified
top-k documents plus any additional (unverified) documents met during the
threshold search or added by later arrivals.  The extra documents are what
makes the incremental refill possible after an expiration.

:class:`ResultList` therefore stores ``doc_id -> score`` together with an
ordered view (descending score) so that:

* the top-k documents and the k-th score ``S_k`` are available in O(k),
* the number of documents with score >= tau (the "verified" documents) can
  be counted cheaply, which is the termination test of the threshold
  descent, and
* membership tests and removals by document id are O(1)/O(log) -- they are
  on the hot path of arrival and expiration handling.

Ties are broken by ascending document id (older document first), a
deterministic convention shared with the oracle baseline used in tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.exceptions import UnknownDocumentError
from repro.index.sorted_list import SortedKeyList

__all__ = ["ResultEntry", "ResultList"]


class ResultEntry(NamedTuple):
    """One scored document inside ``R``."""

    doc_id: int
    score: float


class ResultList:
    """Scored document container with an ordered (descending score) view."""

    __slots__ = ("_scores", "_ordered")

    def __init__(self) -> None:
        #: doc_id -> score
        self._scores: Dict[int, float] = {}
        #: ordered (-score, doc_id) pairs
        self._ordered = SortedKeyList()

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._scores)

    def __bool__(self) -> bool:
        return bool(self._scores)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._scores

    def __iter__(self) -> Iterator[ResultEntry]:
        """Iterate entries from the highest score downwards."""
        for negative_score, doc_id in self._ordered:
            yield ResultEntry(doc_id, -negative_score)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({len(self)} documents)"

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def add(self, doc_id: int, score: float) -> None:
        """Insert or update the score of ``doc_id``."""
        existing = self._scores.get(doc_id)
        if existing is not None:
            if existing == score:
                return
            self._ordered.remove((-existing, doc_id))
        self._scores[doc_id] = score
        self._ordered.add((-score, doc_id))

    def fill(self, pairs: List[Tuple[float, int]]) -> None:
        """Fill an empty list with ``(-score, doc_id)`` pairs already in
        rank order (a restore's recorded ``R``): no sort, no insertion."""
        self._scores = {doc_id: -negative_score for negative_score, doc_id in pairs}
        self._ordered._items = pairs

    def remove(self, doc_id: int) -> float:
        """Remove ``doc_id`` and return its score."""
        score = self._scores.pop(doc_id, None)
        if score is None:
            raise UnknownDocumentError(f"document {doc_id} is not in the result list")
        self._ordered.remove((-score, doc_id))
        return score

    def discard(self, doc_id: int) -> Optional[float]:
        """Remove ``doc_id`` if present; return its score or ``None``."""
        if doc_id not in self._scores:
            return None
        return self.remove(doc_id)

    def clear(self) -> None:
        self._scores.clear()
        self._ordered.clear()

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def score_of(self, doc_id: int) -> float:
        """The stored score of ``doc_id``."""
        try:
            return self._scores[doc_id]
        except KeyError:
            raise UnknownDocumentError(f"document {doc_id} is not in the result list") from None

    def get(self, doc_id: int) -> Optional[float]:
        return self._scores.get(doc_id)

    def top_pairs(self, k: int) -> List[Tuple[float, int]]:
        """The ``k`` best entries as raw ``(-score, doc_id)`` pairs: one slice
        of the ordered view, no objects -- what change collection compares."""
        return self._ordered.head(k) if k > 0 else []

    def top(self, k: int) -> List[ResultEntry]:
        """The ``k`` best entries (descending score, ties by ascending id)."""
        return [
            ResultEntry(doc_id, -negative_score)
            for negative_score, doc_id in self.top_pairs(k)
        ]

    def kth_score(self, k: int) -> float:
        """``S_k``: the score of the k-th best document (0.0 if fewer than k).

        The paper denotes this value S_k; it is the bar a new document must
        clear to enter the top-k result.  This is called on every arrival
        and expiration a query is routed, so it is a single O(1) index into
        the ordered view.
        """
        if k <= 0 or k > len(self._scores):
            return 0.0
        return -self._ordered.item_at(k - 1)[0]

    def entries_below(self, score: float) -> List[ResultEntry]:
        """All entries with score strictly below ``score``, best first.

        The roll-up eviction scan
        (:meth:`repro.core.ita.ITAQueryState._evict_uncovered`) only ever
        needs the entries under the influence threshold tau; slicing just
        that suffix of the ordered view avoids walking the (much larger)
        verified prefix.
        """
        return [
            ResultEntry(doc_id, -negative_score)
            for negative_score, doc_id in self._ordered.suffix_gt((-score, float("inf")))
        ]

    def min_score(self) -> float:
        """The lowest stored score (0.0 when empty).

        This is the entry bar of a Naive/k_max materialised view: a new
        document must beat the worst view member to be admitted.
        """
        if not self._ordered:
            return 0.0
        negative_score, _doc_id = self._ordered.last()
        return -negative_score

    def worst_doc_id(self) -> int:
        """The document a full k_max view trims: lowest score, then highest id."""
        return self._ordered.last()[1]

    def is_in_top_k(self, doc_id: int, k: int) -> bool:
        """Whether ``doc_id`` is among the k best entries."""
        return doc_id in self._scores and any(pair[1] == doc_id for pair in self.top_pairs(k))

    def count_at_or_above(self, score: float) -> int:
        """Number of documents with score >= ``score``.

        With ``score`` equal to the influence threshold tau this is the
        number of *verified* documents, the termination criterion of the
        threshold descent.
        """
        return self._ordered.count_le((-score, float("inf")))

    def documents(self) -> List[int]:
        """All document ids in ``R`` (highest score first)."""
        return [entry.doc_id for entry in self]

    def as_dict(self) -> Dict[int, float]:
        """A copy of the ``doc_id -> score`` mapping."""
        return dict(self._scores)

    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Validate the dictionary and the ordered view agree (tests only)."""
        self._ordered.check_invariants()
        assert len(self._ordered) == len(self._scores)
        for negative_score, doc_id in self._ordered:
            assert self._scores.get(doc_id) == -negative_score
