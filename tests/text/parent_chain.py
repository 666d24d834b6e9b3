"""The text chain as it stood at commit 3ffed57, frozen as a test oracle.

``Analyzer`` used to push every token of every text through
``RegexTokenizer.words`` (one ``Token`` per match), a lower-cased copy, the
stop-word filter, ``PorterStemmer.stem`` and a ``Counter``.  It now does that
work once per surface form, and the stemmer was rewritten around one
consonant/vowel string per word.  Both changes promise *the same terms*; this
module is the old code, kept verbatim so the tests can hold them to it.

Do not tidy or speed it up: its value is that it has not changed.
``StopwordFilter`` is imported, not copied -- it did not change.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Dict, Iterable, List, Optional

from repro.text.analyzer import AnalyzerConfig
from repro.text.stopwords import StopwordFilter

__all__ = ["ParentPorterStemmer", "ParentAnalyzer"]

_WORD_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z0-9]+)*")


class ParentPorterStemmer:
    """``PorterStemmer`` as it stood at 3ffed57, dead code and cache included.

    Example
    -------
    >>> stemmer = PorterStemmer()
    >>> stemmer.stem("monitoring")
    'monitor'
    >>> stemmer.stem("caresses")
    'caress'
    """

    _VOWELS = "aeiou"

    def __init__(self, cache_size: int = 50_000) -> None:
        # Stemming is called once per token of every streamed document, so a
        # small memoisation cache pays for itself on realistic corpora where
        # term frequencies are Zipfian.
        self._cache: Dict[str, str] = {}
        self._cache_size = cache_size

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def stem(self, word: str) -> str:
        """Return the stem of ``word`` (lower-cased)."""
        word = word.lower()
        if len(word) <= 2 or not word.isalpha():
            return word
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        stem = self._stem(word)
        if len(self._cache) < self._cache_size:
            self._cache[word] = stem
        return stem

    def stem_all(self, words: Iterable[str]) -> List[str]:
        """Stem every word in ``words`` and return the list of stems."""
        return [self.stem(word) for word in words]

    def __call__(self, word: str) -> str:
        return self.stem(word)

    # ------------------------------------------------------------------ #
    # helpers: consonant test, measure, vowel-in-stem, double consonant,
    # cvc pattern
    # ------------------------------------------------------------------ #
    def _is_consonant(self, word: str, index: int) -> bool:
        letter = word[index]
        if letter in self._VOWELS:
            return False
        if letter == "y":
            if index == 0:
                return True
            return not self._is_consonant(word, index - 1)
        return True

    def _measure(self, stem: str) -> int:
        """Return m, the number of VC sequences in ``stem``."""
        forms = []
        for i in range(len(stem)):
            forms.append("c" if self._is_consonant(stem, i) else "v")
        collapsed = []
        for form in forms:
            if not collapsed or collapsed[-1] != form:
                collapsed.append(form)
        pattern = "".join(collapsed)
        # Strip optional leading consonant run and trailing vowel run, then
        # count "vc" pairs.
        if pattern.startswith("c"):
            pattern = pattern[1:]
        if pattern.endswith("v"):
            pattern = pattern[:-1]
        return pattern.count("vc")

    def _contains_vowel(self, stem: str) -> bool:
        return any(not self._is_consonant(stem, i) for i in range(len(stem)))

    def _ends_double_consonant(self, word: str) -> bool:
        if len(word) < 2:
            return False
        if word[-1] != word[-2]:
            return False
        return self._is_consonant(word, len(word) - 1)

    def _ends_cvc(self, word: str) -> bool:
        """*o* condition: stem ends cvc where the final c is not w, x or y."""
        if len(word) < 3:
            return False
        if not self._is_consonant(word, len(word) - 3):
            return False
        if self._is_consonant(word, len(word) - 2):
            return False
        if not self._is_consonant(word, len(word) - 1):
            return False
        return word[-1] not in "wxy"

    # ------------------------------------------------------------------ #
    # replacement helper
    # ------------------------------------------------------------------ #
    def _replace(self, word: str, suffix: str, replacement: str, min_measure: int) -> Optional[str]:
        """If ``word`` ends with ``suffix`` and the stem before it has
        measure > ``min_measure`` - 1, return the word with the suffix
        replaced; otherwise return ``None``."""
        if not word.endswith(suffix):
            return None
        stem = word[: len(word) - len(suffix)]
        if self._measure(stem) >= min_measure:
            return stem + replacement
        return word  # suffix matched but condition failed: stop processing

    # ------------------------------------------------------------------ #
    # the five steps
    # ------------------------------------------------------------------ #
    def _step1a(self, word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            stem = word[:-3]
            if self._measure(stem) > 0:
                return word[:-1]
            return word
        flag = False
        if word.endswith("ed"):
            stem = word[:-2]
            if self._contains_vowel(stem):
                word = stem
                flag = True
        elif word.endswith("ing"):
            stem = word[:-3]
            if self._contains_vowel(stem):
                word = stem
                flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if self._ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if self._measure(word) == 1 and self._ends_cvc(word):
                return word + "e"
        return word

    def _step1c(self, word: str) -> str:
        if word.endswith("y") and self._contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_SUFFIXES = (
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    )

    def _step2(self, word: str) -> str:
        for suffix, replacement in self._STEP2_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: len(word) - len(suffix)]
                if self._measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    _STEP3_SUFFIXES = (
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    )

    def _step3(self, word: str) -> str:
        for suffix, replacement in self._STEP3_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: len(word) - len(suffix)]
                if self._measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    _STEP4_SUFFIXES = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )

    def _step4(self, word: str) -> str:
        for suffix in self._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: len(word) - len(suffix)]
                if suffix == "ion":
                    # handled below via sion/tion
                    continue
                if self._measure(stem) > 1:
                    return stem
                return word
        if word.endswith("ion"):
            stem = word[:-3]
            if stem and stem[-1] in "st" and self._measure(stem) > 1:
                return stem
        return word

    def _step5a(self, word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            measure = self._measure(stem)
            if measure > 1:
                return stem
            if measure == 1 and not self._ends_cvc(stem):
                return stem
        return word

    def _step5b(self, word: str) -> str:
        if self._measure(word) > 1 and self._ends_double_consonant(word) and word.endswith("l"):
            return word[:-1]
        return word

    def _stem(self, word: str) -> str:
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word


class ParentAnalyzer:
    """``Analyzer.analyze`` / ``term_frequencies`` at 3ffed57, list at a time.

    The tokenizer's ``iter_tokens`` filters (``min_length=1``, then
    ``keep_numbers``) are inlined; the ``Token`` objects it built carried
    nothing the chain read but their text.
    """

    def __init__(self, config: Optional[AnalyzerConfig] = None) -> None:
        self.config = config or AnalyzerConfig()
        self._stopword_filter = StopwordFilter(
            min_length=self.config.min_token_length,
            extra=self.config.extra_stopwords,
        )
        self._stemmer = ParentPorterStemmer()

    def _words(self, text: str) -> List[str]:
        if not isinstance(text, str):
            raise TypeError(f"expected str, got {type(text).__name__}")
        words = []
        for match in _WORD_RE.finditer(text):
            word = match.group(0)
            if len(word) < 1:
                continue
            if not self.config.keep_numbers and word.isdigit():
                continue
            words.append(word)
        return words

    def analyze(self, text: str) -> List[str]:
        tokens = self._words(text)
        if self.config.lowercase:
            tokens = [token.lower() for token in tokens]
        if self.config.remove_stopwords:
            tokens = self._stopword_filter.filter(tokens)
        else:
            tokens = [t for t in tokens if len(t) >= self.config.min_token_length]
        if self.config.stem:
            tokens = [self._stemmer.stem(token) for token in tokens]
        return tokens

    def term_frequencies(self, text: str) -> Dict[str, int]:
        return dict(Counter(self.analyze(text)))
