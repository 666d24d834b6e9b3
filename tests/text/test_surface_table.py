"""The surface-form table changes what analysis costs, never what it returns.

Oracle: :mod:`tests.text.parent_chain`, the token-at-a-time chain this
repository ran before the table existed.
"""

import string
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.text.analyzer as analyzer_module
from repro.text.analyzer import SURFACE_TABLE_CAPACITY, Analyzer, AnalyzerConfig
from tests.text.bench_text import NEWS, TextGenerator, TextShape
from tests.text.parent_chain import ParentAnalyzer

#: every lowercase x remove_stopwords x stem x keep_numbers combination
FLAGS = list(product((True, False), repeat=4))

# Benchmark-shaped text: inflected pseudo-words, real stopwords, capitalised
# sentences -- small enough that a generator builds in milliseconds.
_SHAPE = TextShape(vocab_size=300, median_tokens=40, stopword_rate=0.35, inflect_rate=0.5)
_GENERATORS = [TextGenerator(seed, _SHAPE) for seed in (1, 2)]
_DOCUMENTS = [text for generator in _GENERATORS for text in generator.documents(60)]
_QUERIES = [text for generator in _GENERATORS for text in generator.queries(30, 5)]

_adversarial_token = st.one_of(
    st.sampled_from(["The", "THE", "tHe", "a", "I", "x", "7", "42", "1992", "b2b", "B2B", "3rd"]),
    st.sampled_from(["don't", "DON'T", "o'reilly", "rock'n'roll", "'quoted'", "it's", "''", "'"]),
    st.sampled_from(["café", "naïve", "Straße", "İstanbul", "ﬁnal", "Ωmega", "日本語", "résumés"]),
    st.sampled_from(["Relational", "HOPPING", "Happy", "yYy", "Generalizations", "agreed", "SKY"]),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=3),
    st.text(alphabet="aeiouyst", min_size=150, max_size=400),
    st.text(alphabet="abcXYZ019'-_. \n\té", max_size=12),
)
_adversarial_text = st.lists(_adversarial_token, max_size=12).map(" ".join)
# ASCII words run into non-ASCII characters, which leave a text unfolded:
# two that lower-case to ASCII (U+0130, U+212A) and newswire punctuation.
_fold_edge_text = st.lists(
    st.one_of(
        st.text(alphabet=string.ascii_letters + string.digits + "' ", max_size=8),
        st.sampled_from(["\u0130", "\u212a", "\u2019", "\u201c", "\u201d"]),
    ),
    max_size=12,
).map("".join)
_text = st.one_of(
    st.sampled_from(_DOCUMENTS), st.sampled_from(_QUERIES), _adversarial_text, st.text(), _fold_edge_text
)


def _config(flags):
    lowercase, remove_stopwords, stem, keep_numbers = flags
    return AnalyzerConfig(
        lowercase=lowercase, remove_stopwords=remove_stopwords, stem=stem, keep_numbers=keep_numbers
    )


def _assert_same_analysis(analyzer, oracle, text):
    counts = analyzer.term_frequencies(text)
    # Item order too: the vocabulary hands out term ids in this order.
    assert list(counts.items()) == list(oracle.term_frequencies(text).items())
    assert analyzer.analyze(text) == oracle.analyze(text)


@pytest.mark.parametrize("capacity", [8, SURFACE_TABLE_CAPACITY], ids=["full-at-8", "default-bound"])
@pytest.mark.parametrize("flags", FLAGS, ids=lambda flags: "".join("ty"[not flag] for flag in flags))
@given(texts=st.lists(_text, min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_one_analyzer_over_documents_and_queries_equals_the_parent_chain(flags, capacity, texts):
    with mock.patch.object(analyzer_module, "SURFACE_TABLE_CAPACITY", capacity):
        analyzer, oracle = Analyzer(_config(flags)), ParentAnalyzer(_config(flags))
        for text in texts:
            _assert_same_analysis(analyzer, oracle, text)
        assert analyzer.surface_table_stats()["entries"] <= capacity


def test_empty_text_and_non_text():
    analyzer = Analyzer()
    assert analyzer.term_frequencies("") == {} and analyzer.analyze("") == []
    assert analyzer.term_frequencies(" \n.,;-- ") == {}
    for bad in (None, 7, b"bytes", ["list"]):
        with pytest.raises(TypeError):
            analyzer.term_frequencies(bad)


def test_extra_stopwords_and_min_length_reach_the_table():
    config = AnalyzerConfig(extra_stopwords=("Reuters",), min_token_length=4)
    analyzer, oracle = Analyzer(config), ParentAnalyzer(config)
    for text in ("Reuters reports the GDP data", "reuters REUTERS gdp data data"):
        _assert_same_analysis(analyzer, oracle, text)


class TestTableAccounting:
    def test_counts_tokens_entries_and_misses(self):
        analyzer = Analyzer()
        analyzer.term_frequencies("The markets fell. The markets rose")
        stats = analyzer.surface_table_stats()
        assert stats == {"entries": 4, "capacity": SURFACE_TABLE_CAPACITY, "tokens": 6, "misses": 4}
        analyzer.analyze("markets fell again")
        stats = analyzer.surface_table_stats()
        assert (stats["entries"], stats["tokens"], stats["misses"]) == (5, 9, 5)

    def test_case_variants_are_one_entry(self):
        analyzer = Analyzer()
        assert analyzer.analyze("Markets MARKETS markets") == ["market"] * 3
        stats = analyzer.surface_table_stats()
        assert (stats["entries"], stats["misses"]) == (1, 1)

    def test_a_non_ascii_text_is_not_folded(self):
        # "\u212a" lower-cases to "k": folded, "\u212aelvin" would gain a token.
        analyzer = Analyzer(AnalyzerConfig(stem=False, remove_stopwords=False, min_token_length=1))
        assert analyzer.analyze("\u212aelvin Markets markets") == ["elvin", "markets", "markets"]
        assert analyzer.surface_table_stats()["entries"] == 3
        assert analyzer.analyze("\u201cMarkets\u201d markets") == ["markets", "markets"]
        assert analyzer.surface_table_stats()["entries"] == 3

    def test_a_full_table_stops_filling_and_keeps_answering(self):
        with mock.patch.object(analyzer_module, "SURFACE_TABLE_CAPACITY", 2):
            analyzer = Analyzer()
            first = analyzer.term_frequencies("alpha beta gamma delta gamma")
            assert analyzer.surface_table_stats()["entries"] == 2
            assert analyzer.term_frequencies("alpha beta gamma delta gamma") == first
            stats = analyzer.surface_table_stats()
            # alpha and beta were kept; gamma (twice) and delta are analysed
            # again on every occurrence.
            assert (stats["entries"], stats["tokens"], stats["misses"]) == (2, 10, 5 + 3)

    def test_terms_are_shared_strings(self):
        analyzer = Analyzer()
        (monitored,) = analyzer.analyze("Monitored")
        (monitoring,) = analyzer.analyze("monitoring")
        (monitor,) = analyzer.analyze("monitor")
        assert monitored is monitoring is monitor

    def test_news_text_mostly_hits(self):
        # The premise of the table: a stream repeats its surface forms.
        analyzer = Analyzer()
        generator = TextGenerator(3, NEWS)
        for text in generator.documents(400):
            analyzer.term_frequencies(text)
        before = analyzer.surface_table_stats()
        for text in generator.documents(100):
            analyzer.term_frequencies(text)
        after = analyzer.surface_table_stats()
        missed = (after["misses"] - before["misses"]) / (after["tokens"] - before["tokens"])
        assert missed < 0.25
