"""The text-analysis pipeline used for both documents and queries.

The paper's system computes, for every incoming document, a *composition
list* of ``(term, weight)`` pairs, and for every registered query a vector
of query-term weights.  Both start from the same analysis pipeline:

    raw text -> tokenize -> lower-case -> stop-word removal -> stemming
             -> term frequencies

The :class:`Analyzer` encapsulates that pipeline.  Everything after
tokenisation depends on the token alone, so it runs once per distinct
*surface form* and is remembered in a bounded table; analysing a text is
one lower-casing of the whole (ASCII) text, one regex pass and one table
lookup per token.  It returns raw term frequencies; the conversion into
cosine-normalised (or Okapi) weights is the job of :mod:`repro.weighting`,
because query weights and document weights are normalised differently
(Formula (1) of the paper).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Protocol

from repro.text.stemmer import NullStemmer, PorterStemmer
from repro.text.stopwords import StopwordFilter
from repro.text.tokenizer import RegexTokenizer

__all__ = ["Analyzer", "AnalyzerConfig", "TermCounts", "SURFACE_TABLE_CAPACITY"]


#: Mapping from term to its raw frequency within one piece of text.
TermCounts = Dict[str, int]

#: Entries an analyzer's surface-form table holds before it stops filling
#: (fill-and-stop, never evicted).  Memory decides it: every entry is a key
#: string the process keeps.  The table is a ``dict``, which resizes when it
#: is 2/3 full; 2**17 slots, allocated once entry 43,691 arrives, hold
#: 87,381 entries, and entry 87,382 would double the allocation.  See
#: ARCHITECTURE.md "Text & documents" for the docs_per_s / peak_rss_mb pair
#: measured at each bound tried.  Threads that miss at once can each pass
#: the ``len`` check and insert, so the table may end a few entries past
#: the bound; the 8 entries held back keep such a race inside 2**17 slots.
SURFACE_TABLE_CAPACITY = 2 * 2**17 // 3 - 8


class _SupportsStem(Protocol):
    def stem(self, word: str) -> str:  # pragma: no cover - protocol
        ...


@dataclass
class AnalyzerConfig:
    """Configuration for :class:`Analyzer`.

    Attributes
    ----------
    lowercase:
        Fold tokens to lower case before further processing.
    remove_stopwords:
        Apply the stop-word filter.
    stem:
        Apply the Porter stemmer.
    min_token_length:
        Minimum surviving token length (applied by the stop-word filter).
    keep_numbers:
        Whether purely numeric tokens are kept.
    extra_stopwords:
        Additional stop-words merged into the default list.
    """

    lowercase: bool = True
    remove_stopwords: bool = True
    stem: bool = True
    min_token_length: int = 2
    keep_numbers: bool = True
    extra_stopwords: Iterable[str] = field(default_factory=tuple)


class _SurfaceTable(Dict[str, Optional[str]]):
    """``surface form -> term``, or ``None`` for a token analysis drops.

    Subscripting an unseen token runs the chain on it (:meth:`__missing__`)
    and keeps the answer while there is room, so the per-token cost of a
    stream that repeats its surface forms is one ``dict`` subscript.  Once
    :data:`SURFACE_TABLE_CAPACITY` entries are held, unseen tokens are
    analysed every time they occur and nothing is evicted.

    Shared between threads without a lock: a lookup is one subscript and a
    fill is one ``__setitem__`` of a value that depends on the key alone, and
    nothing iterates the table.  ``misses`` is then a count that may lose an
    update, which is all an operator's gauge needs.
    """

    def __init__(self, config: AnalyzerConfig, stopword_filter: StopwordFilter, stemmer: _SupportsStem) -> None:
        super().__init__()
        self._config = config
        self._stopword_filter = stopword_filter
        self._stemmer = stemmer
        self.misses = 0

    def __missing__(self, token: str) -> Optional[str]:
        self.misses += 1
        term = self._analyse(token)
        if len(self) < SURFACE_TABLE_CAPACITY:
            # A surface form that is its own term is stored under that one
            # (interned) string, not under a second copy of it.
            self[term if term == token else token] = term
        return term

    def _analyse(self, token: str) -> Optional[str]:
        """One token through lower-casing, the stop-word and minimum-length
        filter and the stemmer: its term, or ``None`` if it is dropped."""
        config = self._config
        if config.lowercase:
            token = token.lower()
        if config.remove_stopwords:
            if self._stopword_filter.is_stopword(token):
                return None
        elif len(token) < config.min_token_length:
            return None
        # Interned, so the table, the vocabulary and every surface form that
        # comes to this term share one string.
        return sys.intern(self._stemmer.stem(token))


class Analyzer:
    """Turn raw text into a bag of analysed terms.

    The analyzer is shared by the document-ingestion path and the
    query-registration path so both sides agree on the dictionary -- and so
    both fill and read one surface-form table.  ``config`` is read when a
    surface form is first seen; changing it afterwards is not supported.

    Example
    -------
    >>> analyzer = Analyzer()
    >>> analyzer.analyze("Weapons of mass destruction")
    ['weapon', 'mass', 'destruct']
    """

    def __init__(self, config: Optional[AnalyzerConfig] = None) -> None:
        self.config = config or AnalyzerConfig()
        self._tokenizer = RegexTokenizer(keep_numbers=self.config.keep_numbers)
        self._stopword_filter = StopwordFilter(
            min_length=self.config.min_token_length,
            extra=self.config.extra_stopwords,
        )
        stemmer: _SupportsStem = PorterStemmer() if self.config.stem else NullStemmer()
        self._table = _SurfaceTable(self.config, self._stopword_filter, stemmer)
        self._tokens = 0

    # ------------------------------------------------------------------ #
    # pipeline
    # ------------------------------------------------------------------ #
    def _terms(self, text: str) -> Iterator[Optional[str]]:
        """The term of every token of ``text`` in order, ``None`` where the
        token is dropped: one regex pass and one table subscript per token.

        With ``lowercase`` set an ASCII text is folded first, so ``Markets``
        and ``markets`` are one table key.  The tokenizer matches ASCII only,
        so that yields the lower-cased tokens of the original; a non-ASCII
        text is tokenised as it is (a few characters, e.g. U+212A KELVIN
        SIGN, lower-case to ASCII)."""
        if not isinstance(text, str):
            raise TypeError(f"expected str, got {type(text).__name__}")
        if self.config.lowercase and text.isascii():
            text = text.lower()
        tokens = self._tokenizer.words(text)
        self._tokens += len(tokens)
        return map(self._table.__getitem__, tokens)

    def analyze(self, text: str) -> List[str]:
        """Return the ordered list of analysed terms for ``text``."""
        return [term for term in self._terms(text) if term is not None]

    def term_frequencies(self, text: str) -> TermCounts:
        """Return a ``{term: count}`` mapping for ``text``, in first-seen order.

        These are the ``f_{d,t}`` (or ``f_{Q,t}``) raw frequencies of the
        paper's Formula (1).
        """
        counts: TermCounts = {}
        for term in self._terms(text):
            if term is not None:
                counts[term] = counts.get(term, 0) + 1
        return counts

    def surface_table_stats(self) -> Dict[str, int]:
        """Entries held and allowed, tokens looked up, and lookups that missed."""
        return {
            "entries": len(self._table),
            "capacity": SURFACE_TABLE_CAPACITY,
            "tokens": self._tokens,
            "misses": self._table.misses,
        }

    # Convenience accessors --------------------------------------------- #
    @property
    def stopword_filter(self) -> StopwordFilter:
        return self._stopword_filter

    @property
    def tokenizer(self) -> RegexTokenizer:
        return self._tokenizer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.config!r})"
