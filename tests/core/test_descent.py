"""Tests for the threshold-algorithm descent (initial top-k search)."""

import pytest

from repro.core.descent import threshold_descent
from repro.index.inverted_index import InvertedIndex
from repro.query.query import ContinuousQuery
from repro.query.result import ResultList
from repro.observability.opcounters import OperationCounters
from tests.conftest import make_document


def build_index(documents):
    index = InvertedIndex()
    for document in documents:
        index.insert_document(document)
    return index


@pytest.fixture
def two_term_setup():
    """The worked scenario used throughout the core tests.

    Query terms A=11 (weight 0.4) and B=20 (weight 0.6), k=2.
    Documents (weights for A, B):
        d1: (0.9, -)    score 0.36
        d2: (0.8, 0.5)  score 0.62
        d3: (-,   0.9)  score 0.54
        d4: (0.5, 0.1)  score 0.26
        d5: (0.3, -)    score 0.12
    """
    documents = [
        make_document(1, {11: 0.9}, arrival_time=1.0),
        make_document(2, {11: 0.8, 20: 0.5}, arrival_time=2.0),
        make_document(3, {20: 0.9}, arrival_time=3.0),
        make_document(4, {11: 0.5, 20: 0.1}, arrival_time=4.0),
        make_document(5, {11: 0.3}, arrival_time=5.0),
    ]
    index = build_index(documents)
    query = ContinuousQuery(0, {11: 0.4, 20: 0.6}, k=2)
    return index, query


class TestInitialSearch:
    def test_finds_correct_topk(self, two_term_setup):
        index, query = two_term_setup
        results = ResultList()
        threshold_descent(query, index, results)
        top = results.top(2)
        assert [entry.doc_id for entry in top] == [2, 3]
        assert top[0].score == pytest.approx(0.62)
        assert top[1].score == pytest.approx(0.54)

    def test_keeps_unverified_documents_in_r(self, two_term_setup):
        index, query = two_term_setup
        results = ResultList()
        threshold_descent(query, index, results)
        # d1 was encountered before termination and must stay in R even
        # though it is not part of the top-2.
        assert 1 in results
        assert results.score_of(1) == pytest.approx(0.36)
        # d4 and d5 lie below the final thresholds and were never touched.
        assert 4 not in results and 5 not in results

    def test_threshold_outcome(self, two_term_setup):
        index, query = two_term_setup
        results = ResultList()
        outcome = threshold_descent(query, index, results)
        assert outcome.thresholds == pytest.approx({11: 0.5, 20: 0.5})
        assert outcome.tau == pytest.approx(0.4 * 0.5 + 0.6 * 0.5)
        assert not outcome.exhausted
        # three postings were read: d3 from L_B, d1 and d2 from L_A
        assert outcome.postings_scanned == 3
        assert outcome.scores_computed == 3

    def test_favours_lists_with_higher_query_weight(self, two_term_setup):
        index, query = two_term_setup
        results = ResultList()
        # The first posting consumed must come from L_B (w_{Q,B} * 0.9 = 0.54
        # beats w_{Q,A} * 0.9 = 0.36), i.e. d3 must be scored even though a
        # round-robin TA would have started with L_A.
        outcome = threshold_descent(query, index, results)
        assert 3 in results

    def test_counters_updated(self, two_term_setup):
        index, query = two_term_setup
        counters = OperationCounters()
        threshold_descent(query, index, ResultList(), counters=counters)
        assert counters.postings_scanned == 3
        assert counters.scores_computed == 3

    def test_fewer_documents_than_k(self):
        index = build_index([make_document(1, {11: 0.9})])
        query = ContinuousQuery(0, {11: 1.0}, k=5)
        results = ResultList()
        outcome = threshold_descent(query, index, results)
        assert outcome.exhausted
        assert outcome.thresholds == {11: 0.0}
        assert outcome.tau == 0.0
        assert [entry.doc_id for entry in results.top(5)] == [1]

    def test_query_term_with_no_inverted_list(self):
        index = build_index([make_document(1, {11: 0.9})])
        query = ContinuousQuery(0, {11: 0.5, 99: 0.5}, k=1)
        results = ResultList()
        outcome = threshold_descent(query, index, results)
        assert outcome.thresholds[99] == 0.0
        assert [entry.doc_id for entry in results.top(1)] == [1]

    def test_empty_index(self):
        index = InvertedIndex()
        query = ContinuousQuery(0, {11: 1.0}, k=3)
        results = ResultList()
        outcome = threshold_descent(query, index, results)
        assert outcome.exhausted
        assert len(results) == 0

    def test_already_satisfied_result_terminates_immediately(self, two_term_setup):
        index, query = two_term_setup
        results = ResultList()
        first = threshold_descent(query, index, results)
        # Re-running from the recorded thresholds must not scan anything new:
        # R already holds k verified documents.
        second = threshold_descent(
            query, index, results, start_thresholds=first.thresholds
        )
        assert second.scores_computed == 0
        assert [e.doc_id for e in results.top(2)] == [2, 3]


class TestResumedSearch:
    def test_resume_descends_below_recorded_thresholds(self, two_term_setup):
        index, query = two_term_setup
        results = ResultList()
        first = threshold_descent(query, index, results)
        # Remove the top document (as an expiration would) and resume.
        index.remove_document(2)
        results.remove(2)
        outcome = threshold_descent(
            query, index, results, start_thresholds=first.thresholds
        )
        top = results.top(2)
        assert [entry.doc_id for entry in top] == [3, 1]
        assert outcome.thresholds[11] <= first.thresholds[11]

    def test_resume_respects_verification_bound(self, two_term_setup):
        index, query = two_term_setup
        results = ResultList()
        first = threshold_descent(query, index, results)
        index.remove_document(3)
        results.remove(3)
        threshold_descent(query, index, results, start_thresholds=first.thresholds)
        top = results.top(2)
        # The true top-2 after d3 leaves is d2 (0.62) and d1 (0.36).
        assert [entry.doc_id for entry in top] == [2, 1]
