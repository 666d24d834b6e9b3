"""Tests for the cosine and Okapi weighting schemes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.weighting.schemes import (
    CosineWeighting,
    OkapiBM25Weighting,
    dot_product,
)


class TestDotProduct:
    def test_iterates_common_terms_only(self):
        assert dot_product({1: 0.5, 2: 0.5}, {2: 0.4, 3: 0.9}) == pytest.approx(0.2)

    def test_disjoint_vectors_score_zero(self):
        assert dot_product({1: 1.0}, {2: 1.0}) == 0.0

    def test_symmetric(self):
        a = {1: 0.3, 2: 0.7}
        b = {2: 0.5, 3: 0.5}
        assert dot_product(a, b) == pytest.approx(dot_product(b, a))

    def test_empty_vectors(self):
        assert dot_product({}, {1: 1.0}) == 0.0
        assert dot_product({1: 1.0}, {}) == 0.0


class TestCosineWeighting:
    def test_document_weights_are_unit_norm(self):
        weights = CosineWeighting().document_weights({1: 3, 2: 4})
        norm = math.sqrt(sum(w * w for w in weights.values()))
        assert norm == pytest.approx(1.0)
        assert weights[2] > weights[1]

    def test_matches_paper_formula(self):
        # w_{d,t} = f / sqrt(sum f^2): frequencies 1 and 2 -> 1/sqrt(5), 2/sqrt(5)
        weights = CosineWeighting().document_weights({10: 1, 20: 2})
        assert weights[10] == pytest.approx(1 / math.sqrt(5))
        assert weights[20] == pytest.approx(2 / math.sqrt(5))

    def test_query_weights_normalised_over_query_terms_only(self):
        # Query {white white tower}: frequencies 2 and 1.
        weights = CosineWeighting().query_weights({0: 2, 1: 1})
        assert weights[0] == pytest.approx(2 / math.sqrt(5))
        assert weights[1] == pytest.approx(1 / math.sqrt(5))

    def test_zero_and_negative_frequencies_ignored(self):
        weights = CosineWeighting().document_weights({1: 0, 2: 3})
        assert 1 not in weights

    def test_empty_document(self):
        assert CosineWeighting().document_weights({}) == {}

    def test_log_tf_damps_high_frequencies(self):
        plain = CosineWeighting(log_tf=False).document_weights({1: 100, 2: 1})
        damped = CosineWeighting(log_tf=True).document_weights({1: 100, 2: 1})
        assert damped[2] > plain[2]

    def test_identical_documents_have_similarity_one(self):
        scheme = CosineWeighting()
        doc = scheme.document_weights({1: 2, 2: 5, 3: 1})
        assert dot_product(doc, doc) == pytest.approx(1.0)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=1, max_value=20),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_weights_always_unit_norm(self, frequencies):
        weights = CosineWeighting().document_weights(frequencies)
        norm = math.sqrt(sum(w * w for w in weights.values()))
        assert norm == pytest.approx(1.0)

    @given(
        st.dictionaries(st.integers(0, 30), st.integers(1, 9), min_size=1, max_size=8),
        st.dictionaries(st.integers(0, 30), st.integers(1, 9), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_cosine_similarity_bounded_by_one(self, query_freqs, doc_freqs):
        scheme = CosineWeighting()
        score = dot_product(scheme.query_weights(query_freqs), scheme.document_weights(doc_freqs))
        assert -1e-9 <= score <= 1.0 + 1e-9


def _parent_document_weights(log_tf, term_frequencies):
    """``CosineWeighting.document_weights`` at 3ffed57: a ``_raw`` call per
    term, a generator sum, a second dict."""

    def raw_of(frequency):
        if frequency <= 0:
            return 0.0
        if log_tf:
            return 1.0 + math.log(frequency)
        return float(frequency)

    raw = {t: raw_of(f) for t, f in term_frequencies.items() if f > 0}
    norm = math.sqrt(sum(value * value for value in raw.values()))
    if norm == 0.0:
        return {}
    return {term_id: value / norm for term_id, value in raw.items()}


class TestCosineWeightsBitForBit:
    @pytest.mark.parametrize("log_tf", [False, True])
    @given(st.dictionaries(st.integers(0, 10_000), st.integers(-3, 400), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_same_floats_in_the_same_order_as_the_parent_formula(self, log_tf, frequencies):
        weights = CosineWeighting(log_tf=log_tf).document_weights(frequencies)
        expected = _parent_document_weights(log_tf, frequencies)
        assert [(t, w.hex()) for t, w in weights.items()] == [(t, w.hex()) for t, w in expected.items()]
        assert all(frequencies[term_id] > 0 for term_id in weights)

    def test_only_non_positive_frequencies_is_an_empty_vector(self):
        assert CosineWeighting().document_weights({1: 0, 2: -4}) == {}
        assert CosineWeighting(log_tf=True).query_weights({1: 0}) == {}

    def test_input_is_not_modified(self):
        frequencies = {3: 2, 1: 0, 2: 1}
        CosineWeighting().document_weights(frequencies)
        assert frequencies == {3: 2, 1: 0, 2: 1}


class TestOkapiBM25Weighting:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            OkapiBM25Weighting(k1=-1)
        with pytest.raises(ConfigurationError):
            OkapiBM25Weighting(b=2.0)
        with pytest.raises(ConfigurationError):
            OkapiBM25Weighting(average_document_length=0)

    def test_document_weights_saturate_with_frequency(self):
        scheme = OkapiBM25Weighting(k1=1.2, b=0.0)
        low = scheme.document_weights({1: 1})[1]
        high = scheme.document_weights({1: 100})[1]
        assert low < high < scheme.k1 + 1.0  # bounded by k1 + 1

    def test_length_normalisation_penalises_long_documents(self):
        scheme = OkapiBM25Weighting(average_document_length=10.0)
        short = scheme.document_weights({1: 2, 2: 2})[1]
        long_doc = {i: 2 for i in range(20)}
        long = scheme.document_weights(long_doc)[1]
        assert long < short

    def test_query_weights_scale_with_frequency_and_idf(self):
        scheme = OkapiBM25Weighting(idf_provider={1: 2.0, 2: 0.5})
        weights = scheme.query_weights({1: 1, 2: 2})
        assert weights[1] == pytest.approx(2.0)
        assert weights[2] == pytest.approx(1.0)

    def test_empty_document(self):
        assert OkapiBM25Weighting().document_weights({}) == {}

    def test_idf_snapshot_constructor(self):
        scheme = OkapiBM25Weighting.with_idf_snapshot(
            document_frequencies={1: 1, 2: 90},
            collection_size=100,
        )
        rare = scheme.query_weights({1: 1})[1]
        common = scheme.query_weights({2: 1})[2]
        assert rare > common

    def test_idf_snapshot_requires_positive_collection(self):
        with pytest.raises(ConfigurationError):
            OkapiBM25Weighting.with_idf_snapshot({}, collection_size=0)

    def test_scores_are_non_negative(self):
        scheme = OkapiBM25Weighting()
        score = dot_product(scheme.query_weights({1: 1}), scheme.document_weights({1: 3, 2: 1}))
        assert score > 0.0
