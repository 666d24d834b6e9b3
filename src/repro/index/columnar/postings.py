"""Column-oriented inverted list.

:class:`ColumnarInvertedList` is drop-in interchangeable with
:class:`repro.index.inverted_list.InvertedList` but stores the impact
entries as two parallel slabs of unboxed machine values:

* ``_negw`` -- ``array('d')`` of *negated* weights, ascending (equal to
  the bisect container's sort key, so weights descend),
* ``_ids`` -- ``array('q')`` of document ids, position-aligned with
  ``_negw``; within a run of equal weights the ids ascend, matching the
  ``(-weight, doc_id)`` tuple order of the bisect container exactly.

Deletion removes the cell from both columns, as insertion adds one: each
is a binary search and one ``memmove`` of the tail, so every cell is a
posting and no read path has anything to skip.

The id -> weight dict is retained for O(1) membership and duplicate
detection, as in the bisect container.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from operator import neg
from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import DuplicateDocumentError, UnknownDocumentError
from repro.index.inverted_list import PostingEntry

__all__ = ["ColumnarInvertedList"]


class ColumnarInvertedList:
    """One impact-ordered posting list ``L_t`` as parallel array columns."""

    __slots__ = ("term_id", "_negw", "_ids", "_weights", "_tree", "_mutations")

    def __init__(self, term_id: int) -> None:
        self.term_id = term_id
        #: negated weights, ascending (=> weights descending)
        self._negw = array("d")
        #: document ids aligned with ``_negw``
        self._ids = array("q")
        #: doc_id -> weight, in insertion (arrival) order: its keys are
        #: the cold record the list turns back into (InvertedIndex.unwatch)
        self._weights: Dict[int, float] = {}
        #: the term's threshold tree, mirrored here so the batch kernel
        #: resolves "is anyone watching this term?" with one attribute
        #: load instead of a second dictionary probe per term per event
        self._tree = None
        #: bumped on every content change (insert/delete).  The batch
        #: kernel uses (list identity, mutation count) to validate its
        #: cross-event roll-up candidate caches.
        self._mutations = 0

    @classmethod
    def from_postings(cls, term_id: int, weights: Dict[int, float]) -> "ColumnarInvertedList":
        """A list over the non-empty ``doc_id -> weight`` map ``weights``, which it adopts.

        How a term's list comes to be when the term is first watched: one
        sort of that term's own postings, one ``array`` per column.
        """
        instance = cls(term_id)
        negw, ids = zip(*sorted(zip(map(neg, weights.values()), weights)))
        instance._negw = array("d", negw)
        instance._ids = array("q", ids)
        instance._weights = weights
        return instance

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._weights)

    def __bool__(self) -> bool:
        return bool(self._weights)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._weights

    def __iter__(self) -> Iterator[PostingEntry]:
        """Iterate the entries in impact order (highest weight first)."""
        for doc_id, negative_weight in zip(self._ids, self._negw):
            yield PostingEntry(doc_id, -negative_weight)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(term={self.term_id}, postings={len(self)})"

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, doc_id: int, weight: float) -> None:
        """Insert the impact entry of ``doc_id``; weight must be positive."""
        if weight <= 0.0:
            raise ValueError(f"impact weights must be positive, got {weight}")
        weights = self._weights
        if doc_id in weights:
            raise DuplicateDocumentError(
                f"document {doc_id} already has a posting for term {self.term_id}"
            )
        negw = self._negw
        ids = self._ids
        negative_weight = -weight
        position = bisect_left(negw, negative_weight)
        # Within an equal-weight run, place before the first id greater than ours.
        size = len(ids)
        while (
            position < size
            and negw[position] == negative_weight
            and ids[position] < doc_id
        ):
            position += 1
        negw.insert(position, negative_weight)
        ids.insert(position, doc_id)
        weights[doc_id] = weight
        self._mutations += 1

    def delete(self, doc_id: int) -> float:
        """Delete the impact entry of ``doc_id`` and return its weight."""
        weight = self._weights.pop(doc_id, None)
        if weight is None:
            raise UnknownDocumentError(
                f"document {doc_id} has no posting for term {self.term_id}"
            )
        negw = self._negw
        ids = self._ids
        position = bisect_left(negw, -weight)
        while ids[position] != doc_id:  # within the equal-weight run
            position += 1
        del negw[position]
        del ids[position]
        self._mutations += 1
        return weight

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def weight_of(self, doc_id: int) -> float:
        """The stored weight of ``doc_id`` (0.0 if absent)."""
        return self._weights.get(doc_id, 0.0)

    def top_weight(self) -> float:
        """The highest weight in the list (0.0 when empty)."""
        return -self._negw[0] if self._negw else 0.0

    def bottom_weight(self) -> float:
        """The lowest weight in the list (0.0 when empty)."""
        return -self._negw[-1] if self._negw else 0.0

    # ------------------------------------------------------------------ #
    # ordered navigation used by the ITA
    # ------------------------------------------------------------------ #
    def iter_from_top(self) -> Iterator[PostingEntry]:
        """Iterate all entries from the highest weight downwards."""
        return iter(self)

    def iter_from_weight(self, weight: float, inclusive: bool = True) -> Iterator[PostingEntry]:
        """Iterate entries with weight <= ``weight`` (< when not
        inclusive), from the highest such weight downwards."""
        negw = self._negw
        ids = self._ids
        if inclusive:
            start = bisect_left(negw, -weight)
        else:
            start = bisect_right(negw, -weight)
        for position in range(start, len(ids)):
            yield PostingEntry(ids[position], -negw[position])

    def next_weight_above(self, weight: float) -> Optional[PostingEntry]:
        """The entry with the smallest weight strictly above ``weight``.

        As in the bisect container, ties are resolved to the largest doc id
        (callers only consume the weight -- roll-up candidates are values).
        """
        negw = self._negw
        position = bisect_left(negw, -weight)
        if position == 0:
            return None
        return PostingEntry(self._ids[position - 1], -negw[position - 1])

    def first_entry_at_or_below(self, weight: float) -> Optional[PostingEntry]:
        """The highest-impact entry with weight <= ``weight``."""
        negw = self._negw
        position = bisect_left(negw, -weight)
        if position == len(negw):
            return None
        return PostingEntry(self._ids[position], -negw[position])

    def entries_at_or_above(self, weight: float) -> List[PostingEntry]:
        """All entries with weight >= ``weight``, highest first."""
        negw = self._negw
        ids = self._ids
        end = bisect_right(negw, -weight)
        return [PostingEntry(ids[position], -negw[position]) for position in range(end)]

    def to_pairs(self) -> List[Tuple[int, float]]:
        """The entries as ``(doc_id, weight)`` pairs, impact order."""
        return [(doc_id, -negative_weight) for doc_id, negative_weight in zip(self._ids, self._negw)]

    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Validate column alignment, ordering and the id->weight map."""
        negw = self._negw
        ids = self._ids
        assert len(negw) == len(ids) == len(self._weights), "column length mismatch"
        cells = list(zip(negw, ids))
        assert all(
            earlier < later for earlier, later in zip(cells, cells[1:])
        ), "columns not in (-weight, doc_id) order"
        assert {
            doc_id: -negative_weight for negative_weight, doc_id in cells
        } == self._weights, "columns/weight map disagree"
