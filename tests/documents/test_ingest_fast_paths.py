"""Every per-term step of ingest returns what its per-element form returned.

Tokenising, mapping terms to ids, weighting and building the composition
list each run as C-level passes over a document's terms.  The oracles
below are the per-element code those passes replaced, kept verbatim; each
property holds a step to its oracle bit for bit, errors included.
"""

from __future__ import annotations

import math
import re
import string
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.documents.corpus import build_document
from repro.documents.document import CompositionList
from repro.exceptions import DocumentError, VocabularyError
from repro.text.tokenizer import RegexTokenizer
from repro.text.vocabulary import Vocabulary
from repro.weighting.schemes import CosineWeighting

# --------------------------------------------------------------------- #
# the oracles
# --------------------------------------------------------------------- #
_WORD_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z0-9]+)*")


def oracle_words(text, keep_numbers, min_length):
    words = _WORD_RE.findall(text)
    if min_length > 1:
        words = [word for word in words if len(word) >= min_length]
    if not keep_numbers:
        words = [word for word in words if not word.isdigit()]
    return words


def oracle_document_weights(term_frequencies, log_tf):
    if log_tf:
        log = math.log
        weights = {t: 1.0 + log(f) for t, f in term_frequencies.items() if f > 0}
    else:
        weights = {t: float(f) for t, f in term_frequencies.items() if f > 0}
    norm = math.sqrt(sum([value * value for value in weights.values()]))
    if norm == 0.0:
        return {}
    for term_id, value in weights.items():
        weights[term_id] = value / norm
    return weights


def oracle_add_counts(vocabulary, counts):
    add = vocabulary.add
    return {add(term): count for term, count in counts.items()}


def outcome(step, *args):
    """What ``step`` gives: its value, or the type and text of its error."""
    try:
        return "value", step(*args)
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return type(error), str(error)


def bits(weights):
    """A weight map as its exact items: order, types and IEEE-754 bytes."""
    return [(term, type(weight), struct.pack("<d", weight)) for term, weight in weights.items()]


# --------------------------------------------------------------------- #
# tokenizer: translate + split on ASCII text without an apostrophe
# --------------------------------------------------------------------- #
_TEXT_CHARACTERS = st.sampled_from(
    list(string.printable) + ["'", "\u2019", "\x00", "\x1c", "\x85", "\xa0", "\xe9", "\xdf", "\u212a", "\u0663", "\u2602"]
)


@settings(max_examples=400, deadline=None)
@given(
    text=st.one_of(st.text(_TEXT_CHARACTERS), st.text(st.characters(max_codepoint=127)), st.text()),
    keep_numbers=st.booleans(),
    min_length=st.integers(1, 4),
)
@example(text="Weapons of MASS destruction, 1992: b2b e-mail\tx\x1fy", keep_numbers=False, min_length=1)
@example(text="don't stop o'reilly's 'quoted' it''s", keep_numbers=True, min_length=2)
@example(text="caf\xe9 Kelvin 42", keep_numbers=True, min_length=1)
def test_tokenizer_words_match_the_regex(text, keep_numbers, min_length):
    tokenizer = RegexTokenizer(keep_numbers=keep_numbers, min_length=min_length)
    assert tokenizer.words(text) == oracle_words(text, keep_numbers, min_length)


def test_tokenizer_words_refuses_what_is_not_text():
    for value in (42, b"bytes", None):
        with pytest.raises(TypeError):
            RegexTokenizer().words(value)


# --------------------------------------------------------------------- #
# cosine weights: map/sum/zip, the same float operations in the same order
# --------------------------------------------------------------------- #
_COUNTS = st.one_of(
    st.integers(-3, 60),
    st.integers(1, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 0.0, -0.0, float("nan"), float("inf"), 5e-324, 1e-200, True]),
)


@settings(max_examples=400, deadline=None)
@given(
    term_frequencies=st.dictionaries(st.integers(0, 10**6), _COUNTS, max_size=40),
    log_tf=st.booleans(),
)
@example(term_frequencies={1: 3, 2: float("nan"), 3: 4}, log_tf=False)
@example(term_frequencies={1: float("nan"), 2: 3}, log_tf=True)
@example(term_frequencies={1: 1e-200, 2: 1e-200}, log_tf=False)
@example(term_frequencies={1: 2**1100}, log_tf=False)
def test_cosine_weights_are_bit_identical(term_frequencies, log_tf):
    scheme = CosineWeighting(log_tf=log_tf)
    got = outcome(scheme.document_weights, term_frequencies)
    expected = outcome(oracle_document_weights, term_frequencies, log_tf)
    if got[0] == "value" and expected[0] == "value":
        assert bits(got[1]) == bits(expected[1])
    else:
        assert got == expected


# --------------------------------------------------------------------- #
# vocabulary ids: one pass of look-ups, unknown terms added in order
# --------------------------------------------------------------------- #
_TERMS = st.text(string.ascii_lowercase[:6], min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    known=st.lists(_TERMS, max_size=20),
    counts=st.dictionaries(_TERMS, st.integers(1, 9), max_size=25),
    frozen=st.booleans(),
)
def test_vocabulary_ids_and_their_order_match_add(known, counts, frozen):
    vocabularies = [Vocabulary(known), Vocabulary(known)]
    if frozen:
        for vocabulary in vocabularies:
            vocabulary.freeze()
    got = outcome(vocabularies[0].add_counts, counts)
    expected = outcome(oracle_add_counts, vocabularies[1], counts)
    assert got == expected
    if got[0] == "value":
        assert list(got[1].items()) == list(expected[1].items())
    else:
        assert got[0] is VocabularyError
    assert list(vocabularies[0]) == list(vocabularies[1])


# --------------------------------------------------------------------- #
# composition: a batch check, then the weighting's dict as it stands
# --------------------------------------------------------------------- #
class _Returns:
    """A weighting scheme that returns a fixed weight map."""

    def __init__(self, weights):
        self.weights = weights

    def document_weights(self, term_frequencies):
        return dict(self.weights)


_WEIGHTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2, 3),
    st.sampled_from([0.0, -0.0, float("nan"), -1.5, float("inf"), 5e-324, 1.0, 1e308]),
)


@settings(max_examples=400, deadline=None)
@given(weights=st.dictionaries(st.integers(0, 2**63), _WEIGHTS, max_size=30))
@example(weights={1: 0.5, 2: 0.0, 3: 0.25})
@example(weights={1: 0.5, 2: float("nan")})
@example(weights={1: float("nan"), 2: 0.5})
@example(weights={1: 0.5, 2: -0.25})
@example(weights={1: 2, 2: 0.5})
@example(weights={1: 1e308, 2: 1e308})
def test_an_analysed_composition_is_what_the_constructor_builds(weights):
    expected = outcome(CompositionList, dict(weights))
    got = outcome(
        lambda: build_document(0, _Returns(weights), term_frequencies={0: 1}).composition
    )
    if expected[0] == "value":
        assert got[0] == "value"
        assert bits(got[1]._raw) == bits(expected[1]._raw)
        assert got[1] == expected[1]
    else:
        assert expected[0] is DocumentError
        assert got == expected


def test_a_well_formed_composition_adopts_the_weighting_dict():
    weights = {3: 0.6, 1: 0.8}
    composition = CompositionList._adopted(weights)
    assert composition._raw is weights
    # anything else is copied by the checking constructor
    assert CompositionList._adopted({3: 0.6, 1: 0.0})._raw == {3: 0.6}
