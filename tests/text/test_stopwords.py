"""Tests for repro.text.stopwords."""

import pytest

from repro.exceptions import ConfigurationError
from repro.text.analyzer import Analyzer, AnalyzerConfig
from repro.text.stopwords import DEFAULT_STOPWORDS, StopwordFilter


class TestDefaultStopwords:
    def test_common_function_words_present(self):
        for word in ("the", "and", "of", "is", "with", "from"):
            assert word in DEFAULT_STOPWORDS

    def test_content_words_absent(self):
        for word in ("weapons", "market", "tower", "explosives"):
            assert word not in DEFAULT_STOPWORDS

    def test_is_a_frozenset(self):
        assert isinstance(DEFAULT_STOPWORDS, frozenset)


class TestStopwordFilter:
    def test_filters_default_stopwords(self):
        keeper = StopwordFilter()
        assert keeper.filter(["the", "market", "and", "rally"]) == ["market", "rally"]

    def test_case_insensitive(self):
        keeper = StopwordFilter()
        assert keeper.is_stopword("The")
        assert keeper.is_stopword("AND")

    def test_min_length_drops_short_tokens(self):
        keeper = StopwordFilter(min_length=3)
        assert keeper.filter(["go", "gdp", "up"]) == ["gdp"]

    def test_min_length_zero_keeps_single_letters(self):
        keeper = StopwordFilter(stopwords=[], min_length=0)
        assert keeper.filter(["e", "mail"]) == ["e", "mail"]

    def test_negative_min_length_rejected(self):
        with pytest.raises(ValueError):
            StopwordFilter(min_length=-1)

    def test_extra_stopwords_merged(self):
        keeper = StopwordFilter(extra=["reuters"])
        assert keeper.is_stopword("Reuters")
        assert keeper.is_stopword("the")

    def test_custom_list_replaces_default(self):
        keeper = StopwordFilter(stopwords=["foo"])
        assert keeper.is_stopword("foo")
        assert not keeper.is_stopword("the")

    def test_contains_protocol(self):
        keeper = StopwordFilter()
        assert "the" in keeper
        assert "tower" not in keeper

    def test_iter_filter_is_lazy_and_equivalent(self):
        keeper = StopwordFilter()
        terms = ["the", "white", "tower", "of", "london"]
        assert list(keeper.iter_filter(terms)) == keeper.filter(terms)

    def test_len_reports_stopword_count(self):
        keeper = StopwordFilter(stopwords=["a", "b", "c"])
        assert len(keeper) == 3

    def test_returns_original_casing(self):
        keeper = StopwordFilter()
        assert keeper.filter(["White", "THE", "Tower"]) == ["White", "Tower"]

    @pytest.mark.parametrize(
        "build",
        [
            lambda words: StopwordFilter(stopwords=words),
            lambda words: StopwordFilter(extra=words),
            lambda words: Analyzer(AnalyzerConfig(extra_stopwords=words)),
        ],
        ids=["stopwords", "extra", "extra_stopwords"],
    )
    def test_a_bare_string_is_refused_before_any_text(self, build):
        # Iterated, "reuters" would be the stop words r, e, u, t, s.
        with pytest.raises(ConfigurationError, match="tuple"):
            build("reuters")
        build(("reuters",))

    def test_a_one_word_tuple_stops_that_word_only(self):
        analyzer = Analyzer(AnalyzerConfig(extra_stopwords=("reuters",), min_token_length=1))
        assert analyzer.analyze("a r e reuters x") == ["r", "e", "x"]
        assert StopwordFilter(stopwords=("reuters",)).filter(["r", "reuters", "Reuters", "the"]) == ["the"]
