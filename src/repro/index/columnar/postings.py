"""Column-oriented inverted list.

:class:`ColumnarInvertedList` is drop-in interchangeable with
:class:`repro.index.inverted_list.InvertedList` but stores the impact
entries as two parallel slabs of unboxed machine values:

* ``_negw`` -- ``array('d')`` of *negated* weights, ascending (equal to
  the bisect container's sort key, so weights descend),
* ``_ids`` -- ``array('q')`` of document ids, position-aligned with
  ``_negw``; within a run of equal weights the *live* ids ascend, matching
  the ``(-weight, doc_id)`` tuple order of the bisect container exactly.

Deletion writes a tombstone (id ``-1``; real ids are non-negative) instead
of shifting the tail, keeping expirations O(log n + run).  Once tombstones
outnumber live entries the columns are compacted in one sweep.  Tombstones
keep their weight cell so binary searches stay valid; every read path
skips them.

The live id -> weight dict is retained for O(1) membership and duplicate
detection, as in the bisect container.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import DuplicateDocumentError, UnknownDocumentError
from repro.index.inverted_list import PostingEntry

__all__ = ["TOMBSTONE", "ColumnarInvertedList"]

#: id value marking a dead cell; document ids are validated non-negative.
TOMBSTONE = -1


class ColumnarInvertedList:
    """One impact-ordered posting list ``L_t`` as parallel array columns."""

    __slots__ = (
        "term_id", "_negw", "_ids", "_weights", "_tombstones", "_tree", "_mutations",
    )

    def __init__(self, term_id: int) -> None:
        self.term_id = term_id
        #: negated weights, ascending (=> weights descending)
        self._negw = array("d")
        #: document ids aligned with ``_negw``; TOMBSTONE marks dead cells
        self._ids = array("q")
        #: live doc_id -> weight
        self._weights: Dict[int, float] = {}
        self._tombstones = 0
        #: the term's threshold tree, mirrored here so the batch kernel
        #: resolves "is anyone watching this term?" with one attribute
        #: load instead of a second dictionary probe per term per event
        self._tree = None
        #: bumped on every content change (insert/delete); compaction
        #: preserves content and deliberately does not bump.  The batch
        #: kernel uses (list identity, mutation count) to validate its
        #: cross-event roll-up candidate caches.
        self._mutations = 0

    @classmethod
    def from_postings(cls, term_id: int, weights: Dict[int, float]) -> "ColumnarInvertedList":
        """A list over the ``doc_id -> weight`` map ``weights``, which it adopts.

        How a term's list comes to be when the term is first watched: one
        sort of that term's own postings, one ``array`` per column.
        """
        instance = cls(term_id)
        ordered = sorted((-weight, doc_id) for doc_id, weight in weights.items())
        instance._negw = array("d", [pair[0] for pair in ordered])
        instance._ids = array("q", [pair[1] for pair in ordered])
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
        """Iterate live entries in impact order (highest weight first)."""
        negw = self._negw
        ids = self._ids
        for position in range(len(ids)):
            doc_id = ids[position]
            if doc_id != TOMBSTONE:
                yield PostingEntry(doc_id, -negw[position])

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
        # Within an equal-weight run, place before the first live id greater
        # than ours (tombstones are order-transparent and skipped over).
        size = len(ids)
        while position < size and negw[position] == negative_weight:
            existing = ids[position]
            if existing != TOMBSTONE and existing > doc_id:
                break
            position += 1
        negw.insert(position, negative_weight)
        ids.insert(position, doc_id)
        weights[doc_id] = weight
        self._mutations += 1

    def delete(self, doc_id: int) -> float:
        """Tombstone the impact entry of ``doc_id`` and return its weight."""
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
        ids[position] = TOMBSTONE
        self._tombstones += 1
        self._mutations += 1
        if self._tombstones * 2 > len(ids):
            self._compact()
        return weight

    def _compact(self) -> None:
        """Drop every tombstoned cell from both columns in one sweep."""
        ids = self._ids
        self._negw = array(
            "d", [value for value, doc_id in zip(self._negw, ids) if doc_id != TOMBSTONE]
        )
        self._ids = array("q", [doc_id for doc_id in ids if doc_id != TOMBSTONE])
        self._tombstones = 0

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def weight_of(self, doc_id: int) -> float:
        """The stored weight of ``doc_id`` (0.0 if absent)."""
        return self._weights.get(doc_id, 0.0)

    def top_weight(self) -> float:
        """The highest live weight in the list (0.0 when empty)."""
        negw = self._negw
        for position, doc_id in enumerate(self._ids):
            if doc_id != TOMBSTONE:
                return -negw[position]
        return 0.0

    def bottom_weight(self) -> float:
        """The lowest live weight in the list (0.0 when empty)."""
        negw = self._negw
        ids = self._ids
        for position in range(len(ids) - 1, -1, -1):
            if ids[position] != TOMBSTONE:
                return -negw[position]
        return 0.0

    # ------------------------------------------------------------------ #
    # ordered navigation used by the ITA
    # ------------------------------------------------------------------ #
    def iter_from_top(self) -> Iterator[PostingEntry]:
        """Iterate all live entries from the highest weight downwards."""
        return iter(self)

    def iter_from_weight(self, weight: float, inclusive: bool = True) -> Iterator[PostingEntry]:
        """Iterate live entries with weight <= ``weight`` (< when not
        inclusive), from the highest such weight downwards."""
        negw = self._negw
        ids = self._ids
        if inclusive:
            start = bisect_left(negw, -weight)
        else:
            start = bisect_right(negw, -weight)
        for position in range(start, len(ids)):
            doc_id = ids[position]
            if doc_id != TOMBSTONE:
                yield PostingEntry(doc_id, -negw[position])

    def next_weight_above(self, weight: float) -> Optional[PostingEntry]:
        """The live entry with the smallest weight strictly above ``weight``.

        As in the bisect container, ties are resolved to the largest doc id
        (callers only consume the weight -- roll-up candidates are values).
        """
        negw = self._negw
        ids = self._ids
        position = bisect_left(negw, -weight)
        while position > 0:
            position -= 1
            doc_id = ids[position]
            if doc_id != TOMBSTONE:
                return PostingEntry(doc_id, -negw[position])
        return None

    def first_entry_at_or_below(self, weight: float) -> Optional[PostingEntry]:
        """The highest-impact live entry with weight <= ``weight``."""
        negw = self._negw
        ids = self._ids
        size = len(ids)
        position = bisect_left(negw, -weight)
        while position < size:
            doc_id = ids[position]
            if doc_id != TOMBSTONE:
                return PostingEntry(doc_id, -negw[position])
            position += 1
        return None

    def entries_at_or_above(self, weight: float) -> List[PostingEntry]:
        """All live entries with weight >= ``weight``, highest first."""
        negw = self._negw
        ids = self._ids
        end = bisect_right(negw, -weight)
        return [
            PostingEntry(ids[position], -negw[position])
            for position in range(end)
            if ids[position] != TOMBSTONE
        ]

    def to_pairs(self) -> List[Tuple[int, float]]:
        """The live entries as ``(doc_id, weight)`` pairs, impact order."""
        negw = self._negw
        return [
            (doc_id, -negw[position])
            for position, doc_id in enumerate(self._ids)
            if doc_id != TOMBSTONE
        ]

    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Validate column alignment, ordering and the id->weight map."""
        negw = self._negw
        ids = self._ids
        assert len(negw) == len(ids), "column length mismatch"
        dead = 0
        live_seen: Dict[int, float] = {}
        previous_negw: Optional[float] = None
        previous_live_id: Optional[int] = None
        for position, doc_id in enumerate(ids):
            value = negw[position]
            if previous_negw is not None:
                assert previous_negw <= value, "weight column not sorted"
            if value != previous_negw:
                previous_live_id = None  # new tie run
            previous_negw = value
            if doc_id == TOMBSTONE:
                dead += 1
                continue
            if previous_live_id is not None:
                assert previous_live_id < doc_id, "live ids not ascending in tie run"
            previous_live_id = doc_id
            live_seen[doc_id] = -value
        assert dead == self._tombstones, "tombstone count out of sync"
        assert live_seen == self._weights, "columns/weight map disagree"
