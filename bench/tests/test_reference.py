"""The output check must accept correct answers and catch corrupted ones."""

import pytest

import reference
from repro import EngineSpec, MonitoringService, WindowSpec
from textgen import TextGenerator, TextShape


@pytest.fixture(scope="module")
def served():
    """A small real service with its inputs' log, queries and results."""
    generator = TextGenerator(1, TextShape(vocab_size=300, median_tokens=30, stopword_rate=0.2))
    service = MonitoringService(EngineSpec(window=WindowSpec.count(50)))
    handles = [service.subscribe(text, k=5) for text in generator.queries(40, 6)]
    documents = generator.documents(120)
    for text in documents:
        service.ingest(text)
    queries = {handle.query_id: (handle.query.weights, handle.query.k) for handle in handles}
    results = {
        query_id: [(entry.doc_id, entry.score) for entry in entries]
        for query_id, entries in service.results().items()
    }
    expected_ids = reference.expected_window_ids(range(len(documents)), count=50)
    yield queries, results, list(service.window), expected_ids
    service.close()


def test_correct_results_pass(served):
    queries, results, window, expected_ids = served
    assert any(results.values()), "the fixture must produce non-empty results"
    assert reference.count_mismatches(queries, results, window, expected_ids) == 0


def _a_full_result(results):
    return next(query_id for query_id, ranked in results.items() if len(ranked) >= 2)


def test_a_dropped_entry_is_caught(served):
    queries, results, window, expected_ids = served
    victim = _a_full_result(results)
    corrupted = {**results, victim: results[victim][1:]}
    assert reference.count_mismatches(queries, corrupted, window, expected_ids) == 1


def test_a_wrong_score_is_caught(served):
    queries, results, window, expected_ids = served
    victim = _a_full_result(results)
    doc_id, score = results[victim][0]
    corrupted = {**results, victim: [(doc_id, score * 1.0001), *results[victim][1:]]}
    assert reference.count_mismatches(queries, corrupted, window, expected_ids) == 1


def test_a_phantom_document_is_caught(served):
    queries, results, window, expected_ids = served
    victim = _a_full_result(results)
    _, score = results[victim][0]
    corrupted = {**results, victim: [(10**9, score), *results[victim][1:]]}
    assert reference.count_mismatches(queries, corrupted, window, expected_ids) == 1


def test_a_missing_subscription_is_caught(served):
    queries, results, window, expected_ids = served
    victim = _a_full_result(results)
    corrupted = {query_id: ranked for query_id, ranked in results.items() if query_id != victim}
    assert reference.count_mismatches(queries, corrupted, window, expected_ids) == 1


def test_a_wrong_window_fails_every_subscription(served):
    queries, results, window, expected_ids = served
    assert reference.count_mismatches(queries, results, window, expected_ids[1:]) == len(queries)


def test_equal_scores_may_swap_documents():
    postings = {1: [(10, 0.5), (11, 0.5), (12, 0.25)]}
    scores = reference.score_all({1: 1.0}, postings)
    expected = reference.rank(scores, 2)
    assert expected == [(10, 0.5), (11, 0.5)]
    assert reference.result_matches([(11, 0.5), (10, 0.5)], expected, scores)
    assert not reference.result_matches([(10, 0.5), (12, 0.25)], expected, scores)
    assert not reference.result_matches([(10, 0.5), (10, 0.5)], expected, scores)


def test_expected_window_ids():
    assert reference.expected_window_ids(range(7), count=3) == [4, 5, 6]
    assert reference.expected_window_ids(range(2), count=3) == [0, 1]
    times = [0.5, 1.0, 2.5, 3.0]
    assert reference.expected_window_ids(times, span=2.0, now=3.0) == [2, 3]  # 3.0 - 1.0 is not < 2.0


def test_count_differences():
    before = {1: [(5, 0.9), (6, 0.5)], 2: []}
    assert reference.count_differences(before, {1: [(5, 0.9), (7, 0.5)], 2: []}) == 0  # a tie swap
    assert reference.count_differences(before, {1: [(5, 0.9), (6, 0.4)], 2: []}) == 1
    assert reference.count_differences(before, {1: [(5, 0.9)], 2: []}) == 1
    assert reference.count_differences(before, {1: [(5, 0.9), (6, 0.5)]}) == 1
    assert reference.count_differences(before, {**before, 3: []}) == 1
