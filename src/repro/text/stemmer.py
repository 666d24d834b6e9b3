"""A from-scratch implementation of the Porter stemming algorithm.

Stemming is part of the standard text pre-processing pipeline assumed by
the paper's reference [7] (Baeza-Yates & Ribeiro-Neto).  We implement the
original algorithm from M. F. Porter, "An algorithm for suffix stripping",
*Program* 14(3), 1980, without relying on any external NLP package.

The implementation follows the five-step structure of the original paper.
Terminology:

* a *consonant* is a letter other than A, E, I, O, U, and other than Y
  preceded by a consonant;
* the *measure* m of a word is the number of VC (vowel-consonant)
  sequences in it, i.e. words have the form ``[C](VC){m}[V]``.

The stemmer is deterministic, idempotent for most inputs, and lower-cases
its input.  Words of length <= 2 are returned unchanged, as in the original
algorithm.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

__all__ = ["PorterStemmer", "NullStemmer"]


#: ``a``-``z`` to ``v`` (vowel) or ``c`` (consonant); ``y`` is settled by
#: :func:`_classes`, which never sends a word containing one through here.
_CV = str.maketrans("abcdefghijklmnopqrstuvwxyz", "vcccvcccvcccccvcccccvccccc")


def _classes(word: str) -> str:
    """``word`` letter by letter as ``c`` (consonant) or ``v`` (vowel).

    A ``y`` is a consonant at the start of the word and after a vowel, so
    the class of letter *i* depends on letters ``<= i`` only: the classes of
    a prefix are a prefix of the word's classes.  That is why :func:`_stem`
    builds this string once and reads every condition off a slice of it.
    """
    if "y" not in word and word.isascii():
        return word.translate(_CV)
    consonant = False
    classes = []
    for letter in word:
        consonant = letter not in "aeiou" and (letter != "y" or not consonant)
        classes.append("c" if consonant else "v")
    return "".join(classes)


def _by_penultimate(*rules: Tuple[str, str]) -> Dict[str, Tuple[Tuple[str, str], ...]]:
    """Group ``(suffix, replacement)`` rules by the suffix's second-to-last
    letter, keeping their order: a word has one such letter, so scanning its
    group alone finds the same first match as scanning every rule."""
    groups: Dict[str, Tuple[Tuple[str, str], ...]] = {}
    for suffix, replacement in rules:
        groups[suffix[-2]] = groups.get(suffix[-2], ()) + ((suffix, replacement),)
    return groups


_STEP2 = _by_penultimate(
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"), ("izer", "ize"),
    ("abli", "able"), ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
    ("ization", "ize"), ("ation", "ate"), ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)
_STEP3 = _by_penultimate(
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"), ("ical", "ic"), ("ful", ""), ("ness", ""),
)
_STEP4 = _by_penultimate(
    ("al", ""), ("ance", ""), ("ence", ""), ("er", ""), ("ic", ""), ("able", ""), ("ible", ""), ("ant", ""),
    ("ement", ""), ("ment", ""), ("ent", ""), ("ou", ""), ("ism", ""), ("ate", ""), ("iti", ""), ("ous", ""),
    ("ive", ""), ("ize", ""), ("ion", ""),
)
#: the rule tables in order, each with the measure its stem must exceed
_SUFFIX_STEPS = ((_STEP2, 0), (_STEP3, 0), (_STEP4, 1))


def _stem(word: str) -> str:
    """Porter's five steps on a lower-case alphabetic ``word`` of 3+ letters.

    ``cv`` is ``_classes(word)`` throughout.  Removing a suffix truncates
    it; the few rewrites (``+e``, ``y -> i``, a step-2/3 replacement) append
    the new tail's classes, none of which contains a ``y``.  The measure of
    the first ``n`` letters is ``cv.count("vc", 0, n)``.
    """
    cv = _classes(word)
    # Step 1a: plurals.
    if word[-1] == "s":
        if word.endswith(("sses", "ies")):
            word = word[:-2]
        elif word[-2] != "s":
            word = word[:-1]
        cv = cv[: len(word)]
    # Step 1b: -eed, -ed, -ing.
    if word.endswith("eed"):
        if "vc" in cv[:-3]:
            word, cv = word[:-1], cv[:-1]
    else:
        # n letters are left once -ed or -ing is gone; 0 when there is neither
        n = len(word) - 2 if word.endswith("ed") else len(word) - 3 if word.endswith("ing") else 0
        if "v" in cv[:n]:
            word, cv = word[:n], cv[:n]
            if word.endswith(("at", "bl", "iz")):
                word, cv = word + "e", cv + "v"
            elif word[-1:] == word[-2:-1] and cv[-1] == "c" and word[-1] not in "lsz":
                word, cv = word[:-1], cv[:-1]
            elif cv.count("vc") == 1 and cv.endswith("cvc") and word[-1] not in "wxy":
                word, cv = word + "e", cv + "v"
    # Step 1c: terminal y to i when the stem has a vowel.
    if word[-1] == "y" and "v" in cv[:-1]:
        word, cv = word[:-1] + "i", cv[:-1] + "v"
    # Steps 2, 3 and 4: the first suffix that matches decides, whether or
    # not its stem is long enough.  Step 4 drops -ion only after s or t.
    for rules, measure in _SUFFIX_STEPS:
        for suffix, replacement in rules.get(word[-2:-1], ()):
            if word.endswith(suffix):
                n = len(word) - len(suffix)
                if cv.count("vc", 0, n) > measure and (suffix != "ion" or word[n - 1 : n] in ("s", "t")):
                    word, cv = word[:n] + replacement, cv[:n] + replacement.translate(_CV)
                break
    # Step 5a: final e.
    if word[-1] == "e":
        measure = cv.count("vc", 0, len(word) - 1)
        if measure > 1 or (measure == 1 and not (cv[:-1].endswith("cvc") and word[-2] not in "wxy")):
            word, cv = word[:-1], cv[:-1]
    # Step 5b: -ll to -l.
    if word.endswith("ll") and cv.count("vc") > 1:
        word = word[:-1]
    return word


class PorterStemmer:
    """Porter (1980) suffix-stripping stemmer.

    Stateless: the memo that makes stemming cheap on a stream lives in
    :class:`repro.text.analyzer.Analyzer`, keyed by surface form.

    Example
    -------
    >>> stemmer = PorterStemmer()
    >>> stemmer.stem("monitoring")
    'monitor'
    >>> stemmer.stem("caresses")
    'caress'
    """

    def stem(self, word: str) -> str:
        """Return the stem of ``word`` (lower-cased)."""
        word = word.lower()
        if len(word) <= 2 or not word.isalpha():
            return word
        return _stem(word)

    def stem_all(self, words: Iterable[str]) -> List[str]:
        """Stem every word in ``words`` and return the list of stems."""
        return [self.stem(word) for word in words]

    def __call__(self, word: str) -> str:
        return self.stem(word)


class NullStemmer:
    """A stemmer that returns its input unchanged.

    Used when the analyzer is configured with ``stem=False`` and by
    synthetic corpora whose terms are opaque identifiers.
    """

    def stem(self, word: str) -> str:
        return word

    def stem_all(self, words: Iterable[str]) -> List[str]:
        return list(words)

    def __call__(self, word: str) -> str:
        return word
