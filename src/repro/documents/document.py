"""The document model.

Each element of the input stream comprises (paper, Section II):

* the text document itself,
* a unique document identifier,
* the document arrival time, and
* a *composition list* with one ``(term, w_{d,t})`` pair per distinct term.

:class:`Document` captures the identifier, composition list and (optional)
raw text; :class:`StreamedDocument` adds the arrival timestamp assigned by
the arrival process.  Composition lists are immutable once built: the
engines rely on document weights never changing while the document is in
the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Collection, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.exceptions import DocumentError

__all__ = ["CompositionList", "Document", "StreamedDocument"]


class CompositionList:
    """The ``(term_id, weight)`` pairs of one document.

    The composition list is stored as an immutable mapping from integer
    term id to weight.  Weights must be positive and finite; zero-weight
    entries are rejected because they would bloat the inverted lists
    without ever contributing to a similarity score.
    """

    __slots__ = ("_weights", "_raw")

    def __init__(self, weights: Mapping[int, float]) -> None:
        cleaned: Dict[int, float] = {}
        for term_id, weight in weights.items():
            if not isinstance(term_id, int) or term_id < 0:
                raise DocumentError(f"invalid term id {term_id!r}")
            weight = float(weight)
            if not math.isfinite(weight):
                raise DocumentError(f"non-finite weight {weight!r} for term {term_id}")
            if weight < 0:
                raise DocumentError(f"negative weight {weight!r} for term {term_id}")
            if weight == 0.0:
                continue
            cleaned[term_id] = weight
        self._weights: Mapping[int, float] = MappingProxyType(cleaned)
        # The dict behind the proxy, for hot loops (the columnar batch
        # kernel) where the proxy's indirection is measurable.  Never
        # mutated -- the proxy view above is the public face.
        self._raw: Dict[int, float] = cleaned

    @classmethod
    def _checked(cls, weights: Dict[int, float]) -> "CompositionList":
        """A list over ``weights`` as it stands: the caller has checked
        that every term id is an ``int`` >= 0 and every weight a finite
        ``float`` > 0, and hands the dict over."""
        composition = cls.__new__(cls)
        composition._weights = MappingProxyType(weights)
        composition._raw = weights
        return composition

    @staticmethod
    def _well_formed(terms: Collection[int], weights: Collection[float]) -> bool:
        """Whether every term id is >= 0 and every weight finite and > 0 --
        what the constructor checks pair by pair, here in C-level passes
        over all of them at once, so such pairs may go to :meth:`_checked`.
        The ids must be ``int`` and the weights ``float`` already, as the
        lists decoded from columns or records have them.  A NaN that
        ``min`` passes over makes the sum NaN."""
        return min(terms, default=0) >= 0 and min(weights, default=1.0) > 0.0 and math.isfinite(sum(weights))

    @classmethod
    def _adopted(cls, weights: Dict[int, float]) -> "CompositionList":
        """A list over what a weighting scheme returned, a fresh dict with
        ``int`` term ids: handed over as it stands when every weight is a
        ``float`` and :meth:`_well_formed`, otherwise through the
        constructor, which converts, raises or drops a zero weight exactly
        as for any other mapping."""
        values = weights.values()
        if (
            type(weights) is dict
            and list(map(type, values)).count(float) == len(values)
            and cls._well_formed(weights, values)
        ):
            return cls._checked(weights)
        return cls(weights)

    # ------------------------------------------------------------------ #
    @property
    def weights(self) -> Mapping[int, float]:
        """Read-only ``{term_id: weight}`` view."""
        return self._weights

    def weight(self, term_id: int) -> float:
        """Weight of ``term_id`` in this document (0.0 if absent)."""
        return self._weights.get(term_id, 0.0)

    def terms(self) -> Iterable[int]:
        """The distinct term ids of the document."""
        return self._weights.keys()

    def items(self) -> Iterable[Tuple[int, float]]:
        return self._weights.items()

    def __iter__(self) -> Iterator[int]:
        return iter(self._weights)

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, term_id: int) -> bool:
        return term_id in self._weights

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompositionList):
            return NotImplemented
        return dict(self._weights) == dict(other._weights)

    def norm(self) -> float:
        """The L2 norm of the weight vector (1.0 for cosine weights)."""
        return math.sqrt(sum(w * w for w in self._weights.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({len(self)} terms)"


@dataclass(frozen=True)
class Document:
    """A document as stored by the monitoring server.

    Attributes
    ----------
    doc_id:
        The unique document identifier.  The engines assume identifiers
        are assigned in arrival order (monotonically increasing), which the
        stream machinery guarantees.
    composition:
        The document's :class:`CompositionList`.
    text:
        The raw text, kept so results can be displayed.  Optional: purely
        synthetic workloads may omit it to save memory.
    metadata:
        Free-form application metadata (source, author, subject line...).
    """

    doc_id: int
    composition: CompositionList
    text: Optional[str] = None
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.doc_id < 0:
            raise DocumentError(f"document id must be non-negative, got {self.doc_id}")

    def weight(self, term_id: int) -> float:
        """Convenience accessor for the composition-list weight."""
        return self.composition.weight(term_id)

    def terms(self) -> Iterable[int]:
        return self.composition.terms()

    def __len__(self) -> int:
        return len(self.composition)


@dataclass(frozen=True)
class StreamedDocument:
    """A document paired with the arrival time assigned by the stream."""

    document: Document
    arrival_time: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_time):
            raise DocumentError("arrival_time must be finite")

    @property
    def doc_id(self) -> int:
        return self.document.doc_id

    @property
    def composition(self) -> CompositionList:
        return self.document.composition
