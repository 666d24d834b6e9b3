"""Batch equivalence: a batch is its documents, one after the other.

:meth:`~repro.core.base.MonitoringEngine.process_batch_events` is the one
path a document takes from the service to an engine.  On the bisect
storage backend it *is* ``process()`` once per document; on the columnar
backend it is the fused kernel; on a cluster it is the batch fan-out.
These tests pin down that whichever runs is *bit-identical* to feeding the
same stream through ``process()`` one document at a time:

* identical final top-k snapshots for every query (exact doc ids and
  scores, not merely tie-tolerant),
* an identical per-event result-change stream, each event's changes
  ordered by query id,
* identical operation counters,
* engine invariants intact afterwards.

Covered engines: ita on both storage backends (with and without roll-up /
round-robin probing), naive, naive-kmax, and the sharded cluster, over
count- and time-based windows, with several chunkings including size 1
and the whole stream.  :class:`TestServiceAlertStream` repeats the claim
one layer up, for the alert stream a :class:`MonitoringService` delivers.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.core.engine import ITAEngine
from repro.documents.window import CountBasedWindow, WindowSpec
from repro.exceptions import WindowError
from repro.query.query import ContinuousQuery
from repro.queryscale.options import QueryScaleOptions
from repro.service import EngineSpec, MonitoringService
from repro.service.spec import spec_from_name
from tests.conftest import StreamCase, assert_same_topk, make_document

ENGINE_NAMES = ["ita", "ita-columnar", "naive", "naive-kmax", "sharded-ita-2"]


def build_pair(name, window_size, queries):
    """Two identically-specced engines with the same queries installed."""
    engines = []
    for _ in range(2):
        engine = spec_from_name(name, window=WindowSpec.count(window_size)).build()
        for query in queries:
            engine.register_query(
                ContinuousQuery(query_id=query.query_id, weights=query.weights, k=query.k)
            )
        engines.append(engine)
    return engines


def chunked(documents, size):
    return [documents[start : start + size] for start in range(0, len(documents), size)]


def assert_identical_results(sequential, batched, queries, context):
    for query in queries:
        expected = sequential.current_result(query.query_id)
        actual = batched.current_result(query.query_id)
        assert expected == actual, (
            f"top-k diverged for query {query.query_id} {context}: "
            f"{expected} != {actual}"
        )


class TestAllEnginesSeededStreams:
    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("chunk_size", [1, 7, 1000])
    def test_final_snapshots_and_change_streams_match(self, engine_name, seed, chunk_size):
        case = StreamCase(seed=seed, num_documents=120)
        window = 12 + seed
        sequential, batched = build_pair(engine_name, window, case.queries)

        sequential_changes = []
        for document in case.documents:
            sequential_changes.extend(sequential.process(document))
        batched_changes = []
        for chunk in chunked(case.documents, chunk_size):
            batched_changes.extend(batched.process_batch(chunk))

        assert_identical_results(
            sequential, batched, case.queries,
            f"(engine {engine_name}, seed {seed}, chunk {chunk_size})",
        )
        assert sequential_changes == batched_changes, (
            f"change streams diverged (engine {engine_name}, seed {seed}, "
            f"chunk {chunk_size})"
        )
        validate = getattr(batched, "check_invariants", None)
        if validate is not None:
            validate()

    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_counters_flush_exactly(self, engine_name):
        case = StreamCase(seed=9, num_documents=90)
        sequential, batched = build_pair(engine_name, 10, case.queries)
        for document in case.documents:
            sequential.process(document)
        for chunk in chunked(case.documents, 16):
            batched.process_batch(chunk)
        assert sequential.counters.as_dict() == batched.counters.as_dict()


class TestITAVariants:
    """The ablation configurations ride the same batch path."""

    @pytest.mark.parametrize(
        "options",
        [
            {"enable_rollup": False},
            {"probe_order": "round_robin"},
            {"track_changes": False},
        ],
    )
    def test_variant_batched_matches_sequential(self, options):
        case = StreamCase(seed=5, num_documents=100)
        engines = []
        for _ in range(2):
            from repro.core.descent import ProbeOrder

            engine = ITAEngine(
                CountBasedWindow(11),
                track_changes=options.get("track_changes", True),
                enable_rollup=options.get("enable_rollup", True),
                probe_order=ProbeOrder(options.get("probe_order", "weighted")),
            )
            for query in case.queries:
                engine.register_query(
                    ContinuousQuery(query_id=query.query_id, weights=query.weights, k=query.k)
                )
            engines.append(engine)
        sequential, batched = engines
        for document in case.documents:
            sequential.process(document)
        for chunk in chunked(case.documents, 13):
            batched.process_batch(chunk)
        assert_identical_results(sequential, batched, case.queries, f"({options})")
        for query in case.queries:
            seq_state = sequential.state_of(query.query_id)
            bat_state = batched.state_of(query.query_id)
            assert seq_state.thresholds == bat_state.thresholds
            assert seq_state.tau == bat_state.tau
            assert seq_state.results.as_dict() == bat_state.results.as_dict()
        batched.check_invariants()

    @pytest.mark.parametrize("storage", ["bisect", "columnar"])
    def test_batch_that_raises_part_way_counts_what_it_applied(self, storage):
        """The second document travels back in time: the first is applied,
        the batch raises, and the counters say so on either storage."""

        def engine_for(storage):
            engine = ITAEngine(CountBasedWindow(4), storage=storage)
            engine.register_query(ContinuousQuery(query_id=1, weights={1: 1.0}, k=2))
            return engine

        documents = [
            make_document(1, {1: 0.6, 2: 0.8}, arrival_time=5.0),
            make_document(2, {1: 1.0}, arrival_time=3.0),
        ]
        reference, batched = engine_for("bisect"), engine_for(storage)
        with pytest.raises(WindowError):
            for document in documents:
                reference.process(document)
        with pytest.raises(WindowError):
            batched.process_batch_events(documents)
        counted = batched.counters.as_dict()
        assert counted == reference.counters.as_dict()
        assert (counted["arrivals"], counted["postings_inserted"]) == (2, 2)
        assert counted["scores_computed"] == 1
        assert [entry.doc_id for entry in batched.current_result(1)] == [1]

    def test_time_based_window_batched_matches_sequential(self):
        from repro.documents.window import TimeBasedWindow

        case = StreamCase(seed=31, num_documents=110)
        engines = []
        for _ in range(2):
            engine = ITAEngine(TimeBasedWindow(15.0))
            for query in case.queries:
                engine.register_query(
                    ContinuousQuery(query_id=query.query_id, weights=query.weights, k=query.k)
                )
            engines.append(engine)
        sequential, batched = engines
        sequential_changes = []
        for document in case.documents:
            sequential_changes.extend(sequential.process(document))
        batched_changes = []
        for chunk in chunked(case.documents, 9):
            batched_changes.extend(batched.process_batch(chunk))
        assert_identical_results(sequential, batched, case.queries, "(time window)")
        assert sequential_changes == batched_changes
        batched.check_invariants()


class TestDifferentialAgainstNaive:
    """The batched ITA path must still agree with the naive baseline."""

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_batched_ita_matches_naive(self, seed):
        case = StreamCase(seed=seed, num_documents=130)
        window = 14
        ita = ITAEngine(CountBasedWindow(window))
        naive = NaiveEngine(CountBasedWindow(window))
        for query in case.queries:
            ita.register_query(
                ContinuousQuery(query_id=query.query_id, weights=query.weights, k=query.k)
            )
            naive.register_query(
                ContinuousQuery(query_id=query.query_id, weights=query.weights, k=query.k)
            )
        for chunk in chunked(case.documents, 10):
            ita.process_batch(chunk)
            naive.process_batch(chunk)
            for query in case.queries:
                assert_same_topk(
                    naive.current_result(query.query_id),
                    ita.current_result(query.query_id),
                    context=f"(seed {seed}, query {query.query_id})",
                )
        ita.check_invariants()


class TestPropertyBased:
    @given(
        queries=st.lists(
            st.tuples(
                st.dictionaries(
                    st.integers(min_value=0, max_value=9),
                    st.sampled_from([0.1, 0.2, 0.25, 0.5, 0.75, 1.0]),
                    min_size=1,
                    max_size=3,
                ),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=4,
        ),
        documents=st.lists(
            st.dictionaries(
                st.integers(min_value=0, max_value=9),
                st.sampled_from([0.1, 0.2, 0.25, 0.5, 0.75, 1.0]),
                min_size=0,
                max_size=4,
            ),
            min_size=1,
            max_size=30,
        ),
        window_size=st.integers(min_value=1, max_value=8),
        chunk_size=st.integers(min_value=1, max_value=11),
    )
    @settings(max_examples=80, deadline=None)
    def test_ita_batched_is_bit_identical(self, queries, documents, window_size, chunk_size):
        sequential = ITAEngine(CountBasedWindow(window_size))
        batched = ITAEngine(CountBasedWindow(window_size))
        for query_id, (weights, k) in enumerate(queries):
            sequential.register_query(ContinuousQuery(query_id, weights, k=k))
            batched.register_query(ContinuousQuery(query_id, weights, k=k))
        streamed = [
            make_document(doc_id, weights, arrival_time=float(doc_id))
            for doc_id, weights in enumerate(documents)
        ]
        sequential_changes = []
        for document in streamed:
            sequential_changes.extend(sequential.process(document))
        batched_changes = []
        for chunk in chunked(streamed, chunk_size):
            batched_changes.extend(batched.process_batch(chunk))
        assert sequential_changes == batched_changes
        for query_id in range(len(queries)):
            assert (
                sequential.current_result(query_id) == batched.current_result(query_id)
            )
            seq_state = sequential.state_of(query_id)
            bat_state = batched.state_of(query_id)
            assert seq_state.thresholds == bat_state.thresholds
            assert seq_state.results.as_dict() == bat_state.results.as_dict()
        assert sequential.counters.as_dict() == batched.counters.as_dict()
        batched.check_invariants()


def _bits(score):
    return struct.pack("<d", score)


def _alert_key(alert):
    change = alert.change
    return (
        change.query_id,
        alert.document.doc_id,
        tuple((entry.doc_id, _bits(entry.score)) for entry in change.entered),
        tuple((entry.doc_id, _bits(entry.score)) for entry in change.left),
    )


class TestServiceAlertStream:
    """One path from ``ingest()`` to the kernel, so one alert stream.

    storage x ingest chunk x {plain, durable, query-scale}: the alerts a
    global and the per-query subscribers receive -- query id, triggering
    document, entered/left with score bits, and the *order* of all that --
    and the final results equal the bisect, one-document-per-call run.
    """

    WINDOW = 13

    def _run(self, storage, chunk_size, flavour, directory):
        case = StreamCase(seed=23, num_documents=140)
        spec = EngineSpec(
            window=WindowSpec.count(self.WINDOW),
            storage=storage,
            queryscale=QueryScaleOptions() if flavour == "queryscale" else None,
        )
        if flavour == "durable":
            service = MonitoringService.open(directory, spec)
        else:
            service = MonitoringService(spec)
        alerts = []
        with service:
            service.on_change(lambda alert: alerts.append(("*", _alert_key(alert))))
            # every query twice: the second copy is what dedup folds away
            for copy in (0, 100):
                for query in case.queries:
                    service.subscribe(
                        ContinuousQuery(query.query_id + copy, query.weights, k=query.k),
                        on_change=lambda alert: alerts.append(("q", _alert_key(alert))),
                    )
            returned = []
            for chunk in chunked(case.documents, chunk_size):
                returned.extend(service.ingest(chunk))
            results = {
                query_id: [(entry.doc_id, _bits(entry.score)) for entry in result]
                for query_id, result in service.results().items()
            }
        assert len(returned) * 2 == len(alerts)
        return alerts, results

    @pytest.fixture(scope="class")
    def reference(self):
        return self._run("bisect", 1, "plain", None)

    @pytest.mark.parametrize("flavour", ["plain", "durable", "queryscale"])
    @pytest.mark.parametrize("chunk_size", [1, 8, 64])
    @pytest.mark.parametrize("storage", ["bisect", "columnar"])
    def test_alert_stream_is_bit_identical(
        self, reference, storage, chunk_size, flavour, tmp_path
    ):
        expected_alerts, expected_results = reference
        assert expected_alerts, "the workload must raise alerts"
        alerts, results = self._run(storage, chunk_size, flavour, tmp_path / "wal")
        assert alerts == expected_alerts
        assert results == expected_results

    def test_each_events_alerts_come_by_query_id(self, reference):
        alerts, _ = reference
        per_event = {}
        for scope, (query_id, doc_id, _, _) in alerts:
            if scope == "*":
                per_event.setdefault(doc_id, []).append(query_id)
        assert any(len(ids) > 1 for ids in per_event.values())
        for ids in per_event.values():
            assert ids == sorted(ids)
