"""Threshold trees.

For each inverted list ``L_t`` the system maintains a book-keeping
structure, the *threshold tree*, containing an entry ``<theta_{Q,t}, Q>``
for each query ``Q`` that includes term ``t`` (paper, Section III).  Its
single purpose is to answer, when a document with per-term weight
``w_{d,t}`` arrives at or departs from ``L_t``:

    "which queries have a local threshold theta_{Q,t} <= w_{d,t}?"

i.e. which queries are *potentially affected* by the update.  Queries whose
local threshold is above the document's weight are guaranteed untouched and
are never visited -- this is where ITA's savings come from.

The implementation keeps the ``(threshold, query_id)`` pairs in a
:class:`SortedKeyList` (ascending threshold) plus a ``query_id ->
threshold`` dictionary for O(1) updates, so a probe enumerates exactly the
matching prefix.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import UnknownQueryError
from repro.index.sorted_list import SortedKeyList

__all__ = ["ThresholdTree"]


class ThresholdTree:
    """Per-inverted-list registry of query local thresholds."""

    __slots__ = ("term_id", "_entries", "_thresholds")

    def __init__(self, term_id: int) -> None:
        self.term_id = term_id
        #: ordered (threshold, query_id) pairs
        self._entries = SortedKeyList()
        #: query_id -> current threshold
        self._thresholds: Dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._thresholds)

    def __contains__(self, query_id: int) -> bool:
        return query_id in self._thresholds

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        """Iterate ``(threshold, query_id)`` pairs in ascending threshold order."""
        return iter(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(term={self.term_id}, queries={len(self)})"

    # ------------------------------------------------------------------ #
    # registration and updates
    # ------------------------------------------------------------------ #
    def register(self, query_id: int, threshold: float) -> None:
        """Insert or update the local threshold of ``query_id``."""
        current = self._thresholds.get(query_id)
        if current is not None:
            if current == threshold:
                return
            self._entries.remove((current, query_id))
        self._entries.add((threshold, query_id))
        self._thresholds[query_id] = threshold

    def update(self, query_id: int, threshold: float) -> None:
        """Update the threshold of an already-registered query."""
        if query_id not in self._thresholds:
            raise UnknownQueryError(
                f"query {query_id} is not registered in the threshold tree of term {self.term_id}"
            )
        self.register(query_id, threshold)

    def unregister(self, query_id: int) -> None:
        """Remove ``query_id`` from the tree (e.g. on query termination)."""
        current = self._thresholds.pop(query_id, None)
        if current is None:
            raise UnknownQueryError(
                f"query {query_id} is not registered in the threshold tree of term {self.term_id}"
            )
        self._entries.remove((current, query_id))

    def threshold_of(self, query_id: int) -> float:
        """The registered threshold of ``query_id``."""
        try:
            return self._thresholds[query_id]
        except KeyError:
            raise UnknownQueryError(
                f"query {query_id} is not registered in the threshold tree of term {self.term_id}"
            ) from None

    def get(self, query_id: int) -> Optional[float]:
        """The registered threshold of ``query_id`` or ``None``."""
        return self._thresholds.get(query_id)

    # ------------------------------------------------------------------ #
    # probes
    # ------------------------------------------------------------------ #
    def queries_at_or_below(self, weight: float) -> List[int]:
        """Query ids whose local threshold is <= ``weight``.

        These are the queries *potentially affected* by a document whose
        impact weight for this term is ``weight`` (paper: "probe its
        threshold tree to identify all those queries Q_i where
        theta_{Q_i,t} <= w_{d,t}").

        This probe runs once per term of every arriving and expiring
        document, so it is a single binary search plus one slice over the
        flat entry storage -- ``(weight, +inf)`` is greater than every
        ``(threshold==weight, query_id)`` pair, so the inclusive upper
        bound covers exact ties.
        """
        return [query_id for _, query_id in self._entries.prefix_le((weight, float("inf")))]

    def iter_queries_at_or_below(self, weight: float) -> Iterator[int]:
        """Lazy variant of :meth:`queries_at_or_below`."""
        for _, query_id in self._entries.prefix_le((weight, float("inf"))):
            yield query_id

    def min_threshold(self) -> Optional[float]:
        """The smallest registered threshold (None when empty)."""
        if not self._entries:
            return None
        threshold, _ = self._entries.first()
        return threshold

    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Validate internal consistency."""
        self._entries.check_invariants()
        assert len(self._entries) == len(self._thresholds), "size mismatch"
        for threshold, query_id in self._entries:
            assert self._thresholds.get(query_id) == threshold, "map/list disagree"
