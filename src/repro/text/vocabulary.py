"""The term dictionary (vocabulary).

The paper's Figure 1 shows a *term dictionary* at the top of the index: the
entry for term ``t`` points to its inverted list ``L_t``.  The
:class:`Vocabulary` implements the term <-> integer-id mapping underlying
that dictionary, plus document-frequency bookkeeping which is needed by the
Okapi/BM25 weighting variant and by the synthetic-corpus statistics.

Using integer term ids rather than strings inside the index keeps the hot
path (posting insertion/deletion, threshold-tree probes) cheap.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import is_
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.exceptions import VocabularyError

__all__ = ["Vocabulary"]


class Vocabulary:
    """A bidirectional term <-> term-id mapping with document frequencies.

    Term ids are dense integers assigned in first-seen order, which makes
    them suitable as array indices.

    The vocabulary can be *frozen*: after :meth:`freeze` is called, looking
    up an unknown term raises :class:`VocabularyError` instead of assigning
    a new id.  Frozen vocabularies are used by the synthetic corpora, whose
    dictionary is fixed up front (the paper's WSJ dictionary has 181,978
    terms after stop-word removal).
    """

    def __init__(self, terms: Optional[Iterable[str]] = None) -> None:
        self._term_to_id: Dict[str, int] = {}
        self._id_to_term: List[str] = []
        self._document_frequency: Dict[int, int] = {}
        self._frozen = False
        if terms is not None:
            for term in terms:
                self.add(term)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, term: str) -> int:
        """Return the id of ``term``, assigning a new one if necessary."""
        term_id = self._term_to_id.get(term)
        if term_id is not None:
            return term_id
        if self._frozen:
            raise VocabularyError(f"vocabulary is frozen; unknown term {term!r}")
        term_id = len(self._id_to_term)
        self._term_to_id[term] = term_id
        self._id_to_term.append(term)
        return term_id

    def add_all(self, terms: Iterable[str]) -> List[int]:
        """Add every term and return their ids (in input order)."""
        return [self.add(term) for term in terms]

    def add_counts(self, counts: Mapping[str, int]) -> Dict[int, int]:
        """``counts`` keyed by term id instead of term, in the same order.

        One C-level pass of look-ups; only the terms the vocabulary does
        not know yet go through :meth:`add`, in order, so new ids follow
        first-seen order and a frozen vocabulary raises
        :class:`VocabularyError` for the first unknown term.
        """
        ids = list(map(self._term_to_id.get, counts))
        if None in ids:
            for position, term in compress(enumerate(counts), map(is_, ids, repeat(None))):
                ids[position] = self.add(term)
        return dict(zip(ids, counts.values()))

    def freeze(self) -> None:
        """Disallow the creation of new term ids from now on."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def id_of(self, term: str) -> int:
        """Return the id of ``term`` or raise :class:`VocabularyError`."""
        try:
            return self._term_to_id[term]
        except KeyError:
            raise VocabularyError(f"unknown term {term!r}") from None

    def get_id(self, term: str) -> Optional[int]:
        """Return the id of ``term`` or ``None`` if it is unknown."""
        return self._term_to_id.get(term)

    def term_of(self, term_id: int) -> str:
        """Return the term string for ``term_id``."""
        if 0 <= term_id < len(self._id_to_term):
            return self._id_to_term[term_id]
        raise VocabularyError(f"unknown term id {term_id}")

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_term)

    def terms_from(self, term_id: int) -> List[str]:
        """The terms with ids ``term_id`` onwards, in id order."""
        return self._id_to_term[term_id:]

    def items(self) -> Iterator[Tuple[str, int]]:
        """Yield ``(term, term_id)`` pairs."""
        return iter(self._term_to_id.items())

    # ------------------------------------------------------------------ #
    # document frequencies
    # ------------------------------------------------------------------ #
    def record_document_terms(self, term_ids: Iterable[int]) -> None:
        """Increment the document frequency of each distinct term id."""
        for term_id in set(term_ids):
            self._document_frequency[term_id] = self._document_frequency.get(term_id, 0) + 1

    def forget_document_terms(self, term_ids: Iterable[int]) -> None:
        """Decrement document frequencies when a document leaves the window."""
        for term_id in set(term_ids):
            current = self._document_frequency.get(term_id, 0)
            if current <= 1:
                self._document_frequency.pop(term_id, None)
            else:
                self._document_frequency[term_id] = current - 1

    def document_frequency(self, term_id: int) -> int:
        """Return the number of (recorded) documents containing ``term_id``."""
        return self._document_frequency.get(term_id, 0)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def to_terms(self, term_ids: Iterable[int]) -> List[str]:
        """Translate a sequence of term ids back into strings."""
        return [self.term_of(term_id) for term_id in term_ids]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "frozen" if self._frozen else "open"
        return f"{type(self).__name__}({len(self)} terms, {state})"
