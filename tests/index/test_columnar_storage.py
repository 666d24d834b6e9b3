"""Unit tests for the storage-backend seam and the columnar containers.

The conformance suites prove whole-engine parity; these tests pin the
layer underneath -- the backend registry contract, the drop-in
equivalence of the columnar containers against their bisect twins under
randomised tie-heavy op sequences, the every-cell-is-a-posting shape of
the postings columns, and the cold-record semantics of the index.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ITAEngine
from repro.documents.document import CompositionList, Document, StreamedDocument
from repro.documents.window import CountBasedWindow
from repro.exceptions import (
    ConfigurationError,
    DuplicateDocumentError,
    UnknownDocumentError,
    UnknownQueryError,
)
from repro.index import backend as backend_module
from repro.index.backend import (
    BisectStorageBackend,
    StorageBackend,
    register_storage_backend,
    storage_backend,
    storage_backends,
)
from repro.index.columnar import ColumnarStorageBackend
from repro.index.columnar.postings import ColumnarInvertedList
from repro.index.columnar.thresholds import ColumnarThresholdTree
from repro.index.document_store import DocumentStore
from repro.index import inverted_index as inverted_index_module
from repro.index.inverted_index import InvertedIndex
from repro.index.inverted_list import InvertedList
from repro.index.threshold_tree import ThresholdTree
from repro.query.query import ContinuousQuery
from tests.conftest import make_document

#: few distinct values -> long equal-weight runs, the regime where the
#: columns and the bisect tuples are most likely to disagree
TIE_WEIGHTS = [0.1, 0.25, 0.5, 0.5, 1.0]


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestBackendRegistry:
    def test_builtin_backends_listed(self):
        names = storage_backends()
        assert "bisect" in names
        assert "columnar" in names
        assert names == sorted(names)

    def test_instances_are_cached(self):
        assert storage_backend("bisect") is storage_backend("bisect")
        assert isinstance(storage_backend("bisect"), BisectStorageBackend)

    def test_unknown_backend_names_the_known_ones(self):
        with pytest.raises(ConfigurationError, match="bisect"):
            storage_backend("no-such-backend")

    def test_columnar_registers_lazily_with_kernel(self):
        columnar = storage_backend("columnar")
        assert columnar.name == "columnar"
        assert columnar.virtual_cold_lists is True
        assert callable(columnar.batch_kernel())
        assert callable(columnar.descent_kernel())

    def test_bisect_has_no_kernels_and_eager_lists(self):
        bisect_backend = storage_backend("bisect")
        assert bisect_backend.batch_kernel() is None
        assert bisect_backend.descent_kernel() is None
        assert bisect_backend.virtual_cold_lists is False

    def test_registration_conflicts(self):
        class DummyBackend(BisectStorageBackend):
            name = "dummy-for-registry-test"

        name = DummyBackend.name
        try:
            register_storage_backend(name, DummyBackend)
            # same factory again: a no-op, not a conflict
            register_storage_backend(name, DummyBackend)
            assert name in storage_backends()
            assert isinstance(storage_backend(name), DummyBackend)
            with pytest.raises(ConfigurationError):
                register_storage_backend(name, BisectStorageBackend)
            register_storage_backend(name, BisectStorageBackend, replace_existing=True)
            assert type(storage_backend(name)) is BisectStorageBackend
        finally:
            backend_module._FACTORIES.pop(name, None)
            backend_module._INSTANCES.pop(name, None)

    def test_abstract_backend_defaults(self):
        class MinimalBackend(StorageBackend):
            name = "minimal"

            def make_inverted_list(self, term_id):
                return InvertedList(term_id)

            def make_threshold_tree(self, term_id):
                return ThresholdTree(term_id)

        minimal = MinimalBackend()
        assert minimal.batch_kernel() is None
        assert minimal.descent_kernel() is None
        built = minimal.build_inverted_list(7, {1: 0.5, 2: 0.25})
        assert built.to_pairs() == [(1, 0.5), (2, 0.25)]
        # default attach_tree is a no-op
        minimal.attach_tree(built, ThresholdTree(7))


# --------------------------------------------------------------------- #
# postings columns vs bisect list
# --------------------------------------------------------------------- #
def probe_state(inverted_list, probes):
    """Everything observable about a list, for cross-class comparison."""
    state = {
        "len": len(inverted_list),
        "bool": bool(inverted_list),
        "pairs": inverted_list.to_pairs(),
        "top_iter": [(e.doc_id, e.weight) for e in inverted_list.iter_from_top()],
    }
    if len(inverted_list):
        state["top"] = inverted_list.top_weight()
        state["bottom"] = inverted_list.bottom_weight()
    for weight in probes:
        above = inverted_list.next_weight_above(weight)
        below = inverted_list.first_entry_at_or_below(weight)
        state[("above", weight)] = None if above is None else (above.doc_id, above.weight)
        state[("below", weight)] = None if below is None else (below.doc_id, below.weight)
        state[("at_or_above", weight)] = [
            (e.doc_id, e.weight) for e in inverted_list.entries_at_or_above(weight)
        ]
        state[("from_w_incl", weight)] = [
            (e.doc_id, e.weight) for e in inverted_list.iter_from_weight(weight)
        ]
        state[("from_w_excl", weight)] = [
            (e.doc_id, e.weight)
            for e in inverted_list.iter_from_weight(weight, inclusive=False)
        ]
    return state


@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=11), st.sampled_from(TIE_WEIGHTS)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_columnar_list_matches_bisect_list(ops):
    """Insert-if-absent / delete-if-present mirror on both containers."""
    reference = InvertedList(3)
    columnar = ColumnarInvertedList(3)
    probes = [0.0, 0.1, 0.25, 0.3, 0.5, 1.0, 2.0]
    for doc_id, weight in ops:
        if doc_id in reference:
            assert reference.delete(doc_id) == columnar.delete(doc_id)
        else:
            reference.insert(doc_id, weight)
            columnar.insert(doc_id, weight)
        assert probe_state(columnar, probes) == probe_state(reference, probes)
        columnar.check_invariants()
    for doc_id in list({doc_id for doc_id, _ in ops}):
        if doc_id in reference:
            assert columnar.weight_of(doc_id) == reference.weight_of(doc_id)


def test_columnar_list_exceptions_match_bisect():
    for make in (InvertedList, ColumnarInvertedList):
        lst = make(1)
        lst.insert(5, 0.5)
        with pytest.raises(DuplicateDocumentError):
            lst.insert(5, 0.25)
        with pytest.raises(UnknownDocumentError):
            lst.delete(6)
        assert lst.weight_of(6) == 0.0  # absent docs read as weightless


@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=15), st.sampled_from(TIE_WEIGHTS)),
        max_size=80,
    )
)
@settings(max_examples=100, deadline=None)
def test_every_cell_is_a_posting_and_tie_runs_ascend(ops):
    """Delete removes the cell: after any interleaving of inserts and deletes
    the columns and the weight map are the same length, and the ids of an
    equal-weight run ascend."""
    columnar = ColumnarInvertedList(1)
    for doc_id, weight in ops:
        mutations = columnar._mutations
        if doc_id in columnar:
            columnar.delete(doc_id)
        else:
            columnar.insert(doc_id, weight)
        assert columnar._mutations == mutations + 1
        assert len(columnar._ids) == len(columnar._negw) == len(columnar._weights)
        cells = list(zip(columnar._negw, columnar._ids))
        assert cells == sorted(cells)
        assert {doc_id: -negative for negative, doc_id in cells} == columnar._weights
        columnar.check_invariants()


def test_check_invariants_rejects_a_descending_tie_run():
    columnar = ColumnarInvertedList(1)
    for doc_id in (4, 2, 9):
        columnar.insert(doc_id, 0.5)
    assert list(columnar._ids) == [2, 4, 9]
    columnar._ids[0], columnar._ids[1] = 4, 2
    with pytest.raises(AssertionError, match="order"):
        columnar.check_invariants()


def test_bulk_build_equals_incremental_inserts():
    pairs = [(doc_id, TIE_WEIGHTS[doc_id % len(TIE_WEIGHTS)]) for doc_id in range(25)]
    incremental = ColumnarInvertedList(9)
    for doc_id, weight in pairs:
        incremental.insert(doc_id, weight)
    weights = dict(reversed(pairs))
    bulk = ColumnarInvertedList.from_postings(9, weights)
    bulk.check_invariants()
    assert bulk._weights is weights  # adopted, not copied
    assert bulk.to_pairs() == incremental.to_pairs()
    assert bytes(bulk._negw) == bytes(incremental._negw)
    assert bytes(bulk._ids) == bytes(incremental._ids)


_STDLIB_ONLY_SCRIPT = """
import sys
from repro import EngineSpec, MonitoringService, WindowSpec

with MonitoringService(EngineSpec(window=WindowSpec.count(4))) as service:
    assert service.engine.index.backend.name == "columnar"
    service.subscribe("market rates", k=2)
    for number in range(60):
        service.ingest(f"market rates story {number}")
    watched = [lst for lst in service.engine.index._lists.values() if lst._tree is not None]
    # 56 expirations per watched list, yet few cells: the sweeps ran
    assert watched and all(len(lst._ids) <= 8 for lst in watched)
assert "numpy" not in sys.modules, "the columnar backend imported numpy"
"""


def test_a_columnar_service_stays_in_the_standard_library():
    """Importing numpy alone triples a process's resident set; a default
    service, and every ``sharded-proc`` worker, must not pay that."""
    source = Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", _STDLIB_ONLY_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr


# --------------------------------------------------------------------- #
# threshold columns vs bisect tree
# --------------------------------------------------------------------- #
@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=1, max_value=8), st.sampled_from(TIE_WEIGHTS)),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=100, deadline=None)
def test_columnar_tree_matches_bisect_tree(ops):
    """register / update / unregister mirror on both trees."""
    reference = ThresholdTree(3)
    columnar = ColumnarThresholdTree(3)
    for query_id, threshold in ops:
        if query_id in reference and threshold == reference.get(query_id):
            reference.unregister(query_id)
            columnar.unregister(query_id)
        else:
            reference.register(query_id, threshold)
            columnar.register(query_id, threshold)
        assert len(columnar) == len(reference)
        assert list(columnar) == list(reference)
        assert columnar.min_threshold() == reference.min_threshold()
        for weight in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
            assert columnar.queries_at_or_below(weight) == (
                reference.queries_at_or_below(weight)
            )
            assert list(columnar.iter_queries_at_or_below(weight)) == (
                reference.queries_at_or_below(weight)
            )
    for query_id in range(1, 9):
        assert columnar.get(query_id) == reference.get(query_id)
        assert (query_id in columnar) == (query_id in reference)


def test_columnar_tree_exceptions_match_bisect():
    for make in (ThresholdTree, ColumnarThresholdTree):
        tree = make(1)
        with pytest.raises(UnknownQueryError):
            tree.threshold_of(4)
        with pytest.raises(UnknownQueryError):
            tree.unregister(4)


# --------------------------------------------------------------------- #
# virtual cold lists
# --------------------------------------------------------------------- #
def streamed(doc_id, weights, timestamp=0.0):
    return StreamedDocument(Document(doc_id, CompositionList(weights)), timestamp)


class _NoScanStore(DocumentStore):
    """A store whose iteration is an error: promotion must not need it."""

    def __iter__(self):
        raise AssertionError("the document store was scanned")


class _NoScanBackend(ColumnarStorageBackend):
    def make_document_store(self):
        return _NoScanStore()


class TestVirtualColdLists:
    def test_cold_terms_have_records_not_lists(self):
        index = InvertedIndex("columnar")
        index.insert_document(streamed(1, {10: 0.5, 11: 0.25}))
        index.insert_document(streamed(2, {10: 0.25}))
        assert not index._lists  # nobody watches: nothing in order
        assert index._cold == {10: [1, 2], 11: [1]}
        assert sorted(index.terms()) == [10, 11]
        assert index.posting_count() == 3
        assert index.list_lengths() == {10: 2, 11: 1}
        index.check_invariants()

    def test_promoting_a_term_never_iterates_the_store(self):
        engine = ITAEngine(CountBasedWindow(3), storage=_NoScanBackend())
        for doc_id in range(1, 6):
            engine.process(make_document(doc_id, {10: 0.1 * doc_id, 11: 0.5}))
        engine.register_query(ContinuousQuery(query_id=1, weights={10: 1.0, 12: 1.0}, k=2))
        assert [entry.doc_id for entry in engine.current_result(1)] == [5, 4]
        index = engine.index
        assert index._lists[10].to_pairs() == [(5, 0.5), (4, 0.4), (3, 0.30000000000000004)]
        assert len(index._lists[12]) == 0  # watched, no postings yet
        assert 11 in index._cold and 11 not in index._lists  # still cold
        # an ordered read of a cold term does not scan the store either
        assert index.existing_list(11).to_pairs() == [(3, 0.5), (4, 0.5), (5, 0.5)]
        assert 11 in index._lists and 11 not in index._cold

    def test_expirations_leave_cold_records_alone_and_readers_skip_them(self):
        index = InvertedIndex("columnar")
        for doc_id in (1, 2, 3):
            index.insert_document(streamed(doc_id, {10: 0.5, 20 + doc_id: 1.0}))
        index.remove_document(1)
        index.remove_document(2)
        assert index._cold[10] == [1, 2, 3]  # nothing was touched...
        assert index.list_lengths() == {10: 1, 23: 1}  # ...and nothing stale is read
        assert sorted(index.terms()) == [10, 23]
        index.check_invariants()
        # the next arrival of the term only appends to its record...
        index.insert_document(streamed(4, {10: 0.25}))
        assert index._cold[10] == [1, 2, 3, 4]
        # ...until an append brings its length to a multiple of 16, which
        # drops the expired head
        for doc_id in range(5, 17):
            index.insert_document(streamed(doc_id, {10: 0.25}))
        assert index._cold[10] == list(range(3, 17))
        # a term whose every document expired reads as absent
        assert index.existing_list(21) is None
        assert 21 not in index._cold

    def test_records_gone_stale_are_swept(self, monkeypatch):
        monkeypatch.setattr(inverted_index_module, "_COLD_SWEEP_MIN", 2)  # sweep early
        index = InvertedIndex("columnar")
        for doc_id in range(1, 41):  # each document brings a term of its own
            index.insert_document(streamed(doc_id, {100 + doc_id: 1.0}))
            if doc_id > 2:
                index.remove_document(doc_id - 2)
        index.check_invariants()
        assert {139, 140} <= set(index._cold)  # the valid ones are all there
        # three documents are valid when a sweep runs, and the next one is
        # due at twice what it leaves: garbage stays bounded
        assert len(index._cold) <= 2 * 3
        assert sorted(index.terms()) == [139, 140]

    def test_a_reused_id_reads_as_the_document_that_holds_it_now(self):
        index = InvertedIndex("columnar")
        index.insert_document(streamed(1, {10: 0.5}))
        index.insert_document(streamed(2, {10: 0.5, 11: 1.0}))
        index.remove_document(1)
        index.remove_document(2)
        index.insert_document(streamed(1, {10: 0.25}))  # id 1 again, with the term
        index.insert_document(streamed(2, {11: 0.5}))  # id 2 again, without it
        index.check_invariants()
        assert index._cold[10] == [1, 2, 1]
        assert index.list_lengths() == {10: 1, 11: 1}
        # the 16th append checks the head, which stops at the first valid
        # id: the reused id 1 keeps both stale places in the record, and
        # readers count document 1 once and skip document 2
        for doc_id in range(3, 16):
            index.insert_document(streamed(doc_id, {10: 0.125}))
        assert index._cold[10] == [1, 2, 1, *range(3, 16)]
        assert index.list_lengths() == {10: 14, 11: 1}
        index.check_invariants()
        assert index.existing_list(10).to_pairs() == [(1, 0.25)] + [(doc_id, 0.125) for doc_id in range(3, 16)]
        index.check_invariants()

    @settings(max_examples=60, deadline=None)
    @given(
        window=st.integers(1, 6),
        stream=st.lists(st.sets(st.integers(10, 13), max_size=3), min_size=1, max_size=80),
    )
    def test_no_record_is_ever_left_empty(self, window, stream):
        """Index and kernel alike: every record holds at least one id (the
        sweep reads ``ids[-1]``), and readers see what an eager index holds."""
        eager = InvertedIndex("bisect")
        virtual = InvertedIndex("columnar")
        engine = ITAEngine(CountBasedWindow(window), storage="columnar")
        for doc_id, terms in enumerate(stream):
            document = streamed(doc_id, {term: 0.5 for term in terms} or {99: 1.0})
            for index in (eager, virtual):  # expire first, as the window does
                if doc_id >= window:
                    index.remove_document(doc_id - window)
                index.insert_document(document)
            engine.process_batch_events([document])
            for index in (virtual, engine.index):
                assert all(index._cold.values())
                assert index.list_lengths() == eager.list_lengths()
                index.check_invariants()
            assert virtual._cold == engine.index._cold

    def test_a_term_is_promoted_whole_after_a_long_stale_run(self):
        engine = ITAEngine(CountBasedWindow(3), storage="columnar")
        reference = ITAEngine(CountBasedWindow(3))
        # term 10 in 40 documents, then in none for 20: its record's head
        # goes unchecked for up to 15 appends, then all of it is stale
        for doc_id in range(60):
            weights = {10: 0.1 + doc_id / 100, 11: 0.5} if doc_id < 40 else {11: 0.5}
            for target in (engine, reference):
                target.process_batch_events([make_document(doc_id, weights)])
        assert 10 in engine.index._cold
        assert engine.index.existing_list(10) is None and 10 not in engine.index._cold
        for doc_id in range(60, 62):
            for target in (engine, reference):
                target.process_batch_events([make_document(doc_id, {10: 0.25 + doc_id / 1000})])
        query = ContinuousQuery(query_id=1, weights={10: 1.0}, k=2)
        for target in (engine, reference):
            target.register_query(query)
        assert engine.current_result(1) == reference.current_result(1)
        assert [entry.doc_id for entry in engine.current_result(1)] == [61, 60]
        assert engine.index._lists[10].to_pairs() == reference.index.existing_list(10).to_pairs()
        engine.index.check_invariants()

    def test_existing_list_rebuilds_cold_postings_on_demand(self):
        eager = InvertedIndex("bisect")
        virtual = InvertedIndex("columnar")
        for doc_id, weights in enumerate(
            [{10: 0.5, 11: 0.25}, {10: 0.25}, {11: 0.5, 12: 1.0}], start=1
        ):
            eager.insert_document(streamed(doc_id, weights))
            virtual.insert_document(streamed(doc_id, weights))
        for term_id in (10, 11, 12):
            assert virtual.existing_list(term_id).to_pairs() == (
                eager.existing_list(term_id).to_pairs()
            )
        assert virtual.existing_list(99) is None
        assert eager.existing_list(99) is None

    def test_watched_terms_stay_listed_through_churn(self):
        index = InvertedIndex("columnar")
        index.threshold_tree(10)  # watching term 10 gives it a list
        index.insert_document(streamed(1, {10: 0.5, 11: 0.25}))
        index.insert_document(streamed(2, {10: 0.25}))
        assert 10 in index._lists
        assert 11 not in index._lists
        assert index._lists[10].to_pairs() == [(1, 0.5), (2, 0.25)]
        index.remove_document(1)
        assert index._lists[10].to_pairs() == [(2, 0.25)]
        index.check_invariants()

    def test_both_backends_expose_identical_index_state(self):
        docs = [
            {10: 0.5, 11: 0.25},
            {11: 0.5},
            {10: 0.25, 12: 1.0},
        ]
        snapshots = []
        for storage in ("bisect", "columnar"):
            index = InvertedIndex(storage)
            tree = index.threshold_tree(10)
            tree.register(1, 0.0)
            for doc_id, weights in enumerate(docs, start=1):
                index.insert_document(streamed(doc_id, weights))
            index.remove_document(2)
            index.check_invariants()
            snapshots.append(
                (
                    sorted(index.terms()),
                    index.posting_count(),
                    index.list_lengths(),
                    {
                        term_id: index.existing_list(term_id).to_pairs()
                        for term_id in (10, 11, 12)
                    },
                )
            )
        assert snapshots[0] == snapshots[1]
