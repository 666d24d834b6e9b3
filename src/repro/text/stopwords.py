"""Stop-word removal.

The paper applies "standard stopword removal [7]" (Baeza-Yates &
Ribeiro-Neto) before building its 181,978-term dictionary.  This module
ships a conventional English stop-word list (articles, prepositions,
pronouns, auxiliary verbs, common adverbs — the usual SMART/Glasgow-style
set) and a small filter class so the list can be extended or replaced per
deployment.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Optional, Set

from repro.exceptions import ConfigurationError

__all__ = ["DEFAULT_STOPWORDS", "StopwordFilter"]


#: A conventional English stop-word list.  It intentionally errs on the side
#: of the classic IR lists (function words only) rather than aggressive
#: domain lists, matching the paper's "standard stopword removal".
DEFAULT_STOPWORDS: FrozenSet[str] = frozenset(
    """
    a about above after again against all am an and any are aren't as at
    be because been before being below between both but by
    can cannot can't could couldn't
    did didn't do does doesn't doing don't down during
    each
    few for from further
    had hadn't has hasn't have haven't having he he'd he'll he's her here
    here's hers herself him himself his how how's
    i i'd i'll i'm i've if in into is isn't it it's its itself
    let's
    me more most mustn't my myself
    no nor not
    of off on once only or other ought our ours ourselves out over own
    same shan't she she'd she'll she's should shouldn't so some such
    than that that's the their theirs them themselves then there there's
    these they they'd they'll they're they've this those through to too
    under until up upon us
    very
    was wasn't we we'd we'll we're we've were weren't what what's when
    when's where where's which while who who's whom why why's will with
    won't would wouldn't
    you you'd you'll you're you've your yours yourself yourselves
    also among amongst anyhow anyway became become becomes becoming
    beside besides beyond cant co con could de describe done due eg
    either else elsewhere etc even ever every everyone everything
    everywhere except fifteen fifty fill find fire first five former
    formerly forty found four front full get give go
    hence hereafter hereby herein hereupon however hundred ie inc indeed
    instead interest keep last latter latterly least less ltd made many
    may maybe meanwhile might mill mine moreover mostly move much must
    namely neither never nevertheless next nine nobody none noone nothing
    now nowhere often one onto others otherwise part per perhaps please
    put rather re regarding said say says second see seem seemed seeming
    seems serious several she since sincere six sixty somehow someone
    something sometime sometimes somewhere still take ten therefore
    therein thereupon third three thru thus together toward towards
    twelve twenty two un unless until upon us various via was well
    whatever whence whenever whereafter whereas whereby wherein whereupon
    wherever whether whither whoever whole whose within without yet
    """.split()
)


class StopwordFilter:
    """Filter an iterable of terms, removing stop-words and short tokens.

    Parameters
    ----------
    stopwords:
        The stop-word set to use.  Defaults to :data:`DEFAULT_STOPWORDS`.
        Terms are compared case-insensitively (the filter lower-cases its
        input before the membership test, but returns the original term).
    min_length:
        Terms shorter than this are removed regardless of the stop list.
        The default of 2 drops single letters (a common IR convention and
        the reason hyphen components such as ``e`` from ``e-mail`` vanish).
    extra:
        Additional stop-words to merge into the base set, e.g. corpus
        boiler-plate ("reuters", "copyright").

    A bare ``str`` for either list is a :class:`ConfigurationError`: it
    would be read one letter at a time.
    """

    def __init__(
        self,
        stopwords: Optional[Iterable[str]] = None,
        min_length: int = 2,
        extra: Optional[Iterable[str]] = None,
    ) -> None:
        for name, words in (("stopwords", stopwords), ("extra", extra)):
            if isinstance(words, str):
                raise ConfigurationError(
                    f"{name} must be a collection of words, not the string {words!r}: "
                    f"pass a tuple such as ({words!r},)"
                )
        base: Set[str] = set(DEFAULT_STOPWORDS if stopwords is None else stopwords)
        if extra is not None:
            base.update(extra)
        self._stopwords: FrozenSet[str] = frozenset(word.lower() for word in base)
        if min_length < 0:
            raise ValueError("min_length must be non-negative")
        self.min_length = min_length

    @property
    def stopwords(self) -> FrozenSet[str]:
        """The effective (lower-cased) stop-word set."""
        return self._stopwords

    def is_stopword(self, term: str) -> bool:
        """Return ``True`` if ``term`` should be discarded."""
        if len(term) < self.min_length:
            return True
        return term.lower() in self._stopwords

    def filter(self, terms: Iterable[str]) -> List[str]:
        """Return the terms from ``terms`` that survive filtering."""
        return [term for term in terms if not self.is_stopword(term)]

    def iter_filter(self, terms: Iterable[str]) -> Iterator[str]:
        """Lazily yield surviving terms."""
        for term in terms:
            if not self.is_stopword(term):
                yield term

    def __contains__(self, term: str) -> bool:
        return term.lower() in self._stopwords

    def __len__(self) -> int:
        return len(self._stopwords)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({len(self._stopwords)} stopwords, "
            f"min_length={self.min_length})"
        )
