"""Tokenisation of raw text into candidate terms.

The paper streams Wall Street Journal articles; before indexing, each
article is split into terms, lower-cased and stripped of stop-words
(Baeza-Yates & Ribeiro-Neto, *Modern Information Retrieval*).  This module
implements the first step of that pipeline: a small, predictable regex
tokenizer that is adequate for English news-like text.

A token is a maximal run of ASCII letters and digits, runs joined by
single apostrophes.  On ASCII text without an apostrophe that is exactly
a maximal run of letters and digits, so :meth:`RegexTokenizer.words`
turns every other character into a space with one ``str.translate`` and
splits on spaces -- a C-level pass each, where the regex builds one match
per token; any other text goes through the regex.

The tokenizer is deliberately simple and dependency-free.  It recognises:

* alphabetic words (``weapons``, ``Bloomberg``),
* words with internal apostrophes (``don't`` -> ``don't``; the analyzer may
  later strip the suffix),
* numbers and alphanumeric identifiers (``2009``, ``b2b``),
* hyphenated compounds, which are split into their components
  (``e-mail`` -> ``e``, ``mail``) because the downstream stop-word filter
  discards single letters anyway.

Offsets are preserved so that callers can highlight matches in the original
text if they need to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

__all__ = ["Token", "RegexTokenizer", "WhitespaceTokenizer"]


@dataclass(frozen=True)
class Token:
    """A single token produced by a tokenizer.

    Attributes
    ----------
    text:
        The token text exactly as it appeared in the input (no case folding).
    start:
        Index of the first character of the token in the input string.
    end:
        Index one past the last character of the token in the input string.
    """

    text: str
    start: int
    end: int

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self.text)

    def lower(self) -> str:
        """Return the case-folded token text."""
        return self.text.lower()


class RegexTokenizer:
    """Split text into word-like tokens using a compiled regular expression.

    Parameters
    ----------
    keep_numbers:
        When ``True`` (default) purely numeric tokens such as ``1992`` are
        emitted; when ``False`` they are dropped at tokenisation time.
    min_length:
        Tokens shorter than this many characters are dropped.  The default
        of 1 keeps everything; the analyzer applies its own minimum.
    """

    #: Word characters plus internal apostrophes: ``don't``, ``o'reilly``.
    _WORD_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z0-9]+)*")
    #: Every ASCII character but a letter or a digit, to a space: on ASCII
    #: text without an apostrophe, what is left between spaces is exactly
    #: what ``_WORD_RE`` matches.
    _SPACE_OUT = {code: " " for code in range(128) if not chr(code).isalnum()}

    def __init__(self, keep_numbers: bool = True, min_length: int = 1) -> None:
        if min_length < 1:
            raise ValueError("min_length must be at least 1")
        self.keep_numbers = keep_numbers
        self.min_length = min_length

    def tokenize(self, text: str) -> List[Token]:
        """Return the list of :class:`Token` found in ``text``."""
        return list(self.iter_tokens(text))

    def iter_tokens(self, text: str) -> Iterator[Token]:
        """Yield tokens lazily; useful for very large documents."""
        if not isinstance(text, str):
            raise TypeError(f"expected str, got {type(text).__name__}")
        for match in self._WORD_RE.finditer(text):
            word = match.group(0)
            if len(word) < self.min_length:
                continue
            if not self.keep_numbers and word.isdigit():
                continue
            yield Token(word, match.start(), match.end())

    def words(self, text: str) -> List[str]:
        """Return just the token strings (no offsets, no :class:`Token`)."""
        if str.isascii(text) and "'" not in text:  # a TypeError, as from findall, for a non-str
            words = text.translate(self._SPACE_OUT).split()
        else:
            words = self._WORD_RE.findall(text)
        if self.min_length > 1:
            words = [word for word in words if len(word) >= self.min_length]
        if not self.keep_numbers:
            words = [word for word in words if not word.isdigit()]
        return words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(keep_numbers={self.keep_numbers}, "
            f"min_length={self.min_length})"
        )


class WhitespaceTokenizer:
    """A trivial tokenizer that splits on whitespace only.

    Used by tests and by synthetic corpora whose "terms" are already
    pre-formed identifiers (e.g. ``term0042``) that must not be altered.
    """

    def tokenize(self, text: str) -> List[Token]:
        tokens: List[Token] = []
        position = 0
        for piece in text.split():
            start = text.index(piece, position)
            end = start + len(piece)
            tokens.append(Token(piece, start, end))
            position = end
        return tokens

    def iter_tokens(self, text: str) -> Iterator[Token]:
        return iter(self.tokenize(text))

    def words(self, text: str) -> List[str]:
        return text.split()


def ngrams(tokens: Sequence[str], n: int) -> Iterable[tuple]:
    """Yield consecutive ``n``-grams from a token sequence.

    Not used by the core ITA pipeline (the paper indexes unigrams only) but
    handy for building richer example workloads.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for i in range(len(tokens) - n + 1):
        yield tuple(tokens[i : i + n])
