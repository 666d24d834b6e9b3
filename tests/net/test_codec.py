"""The shard channel's binary codecs: bit-exact round trips, fail-closed decoding."""

from __future__ import annotations

import math
import socket
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.base import ResultChange
from repro.exceptions import ConfigurationError, QueryError, ReproError, RpcTransportError
from repro.net.codec import decode_changes, decode_documents, encode_changes, encode_documents
from repro.net.protocol import RpcConnection
from repro.net.worker import ShardWorker
from repro.persistence import SNAPSHOT_VERSION, decode_seed, encode_queries, restore_into, snapshot_engine
from repro.query.result import ResultEntry
from repro.service import EngineSpec, WindowSpec
from tests.conftest import make_document, make_query

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)
#: a seed's window section with no documents: the query section starts after it
NO_DOCUMENTS = encode_documents([])
#: the smallest subnormal and the float right after 1.0
EDGE_FLOATS = [5e-324, 1.0000000000000002]

ids = st.one_of(st.integers(0, INT64_MAX), st.sampled_from([0, INT64_MAX - 1, INT64_MAX]))
weights = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(min_value=5e-324, max_value=1e300, allow_infinity=False)
)
arrivals = st.one_of(
    st.sampled_from([-1e300, -5e-324, 5e-324, 1.7976931348623157e308, *EDGE_FLOATS]),
    st.floats(allow_nan=False, allow_infinity=False),
)
scores = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False))
batches = st.lists(st.tuples(ids, arrivals, st.dictionaries(ids, weights, max_size=6)), max_size=5).map(
    lambda rows: [make_document(doc_id, terms, arrival) for doc_id, arrival, terms in rows]
)
entries = st.lists(st.builds(ResultEntry, ids, scores), max_size=3).map(tuple)
per_event = st.lists(st.lists(st.builds(ResultChange, ids, entries, entries), max_size=4), max_size=4)


def document_key(streamed):
    """A document as exact values: the floats by their hex spelling."""
    terms = [(term, weight.hex()) for term, weight in streamed.composition.items()]
    return streamed.doc_id, streamed.arrival_time.hex(), terms


def changes_key(events):
    def pairs(side):
        assert all(type(entry) is ResultEntry for entry in side)
        return [(doc_id, score.hex()) for doc_id, score in side]

    assert all(type(change) is ResultChange for event in events for change in event)
    return [[(c.query_id, pairs(c.entered), pairs(c.left)) for c in event] for event in events]


@given(batches)
@example([])
@example([make_document(INT64_MAX, {INT64_MAX: 5e-324, 0: 1.0000000000000002}, -0.0)])
@settings(max_examples=150, deadline=None)
def test_documents_round_trip_bit_exactly(batch):
    decoded = decode_documents(encode_documents(batch))
    assert [document_key(streamed) for streamed in decoded] == [document_key(s) for s in batch]
    assert all(streamed.document.text is None for streamed in decoded)


@given(per_event)
@example([])
@example([[], []])
@example(
    [[ResultChange(INT64_MAX, entered=(ResultEntry(1, 5e-324),))],
     [ResultChange(0, left=(ResultEntry(INT64_MAX, 1.0000000000000002),)), ResultChange(3)]]
)
@settings(max_examples=150, deadline=None)
def test_changes_round_trip_bit_exactly(events):
    assert changes_key(decode_changes(encode_changes(events))) == changes_key(events)


SAMPLES = [
    (decode_documents, encode_documents([make_document(7, {1: 0.5, 9: 0.25}, 3.0)])),
    (decode_documents, encode_documents([])),
    (decode_changes, encode_changes([[ResultChange(4, (ResultEntry(7, 0.5),), ())], []])),
    (decode_changes, encode_changes([])),
]


@pytest.mark.parametrize("decode, data", SAMPLES)
def test_truncated_or_over_long_attachments_are_transport_errors(decode, data):
    for end in range(len(data)):
        with pytest.raises(RpcTransportError):
            decode(data[:end])
    for tail in (b"\x00", b"\xff" * 9):
        with pytest.raises(RpcTransportError):
            decode(data + tail)


def test_a_count_past_the_attachment_allocates_nothing():
    with pytest.raises(RpcTransportError):
        decode_documents(b"\xff\xff\xff\xff")
    with pytest.raises(RpcTransportError):
        decode_changes(b"\x01\x00\x00\x00\xff\xff\xff\xff")


@given(st.binary(max_size=200))
@settings(max_examples=300, deadline=None)
def test_garbage_fails_typed_or_decodes(data):
    """Bytes off the wire either decode or raise a ``repro.exceptions``
    error -- never a struct, index or memory error."""
    after_no_documents = lambda data: decode_seed(NO_DOCUMENTS + data)  # noqa: E731
    for decode in (decode_documents, decode_changes, decode_seed, after_no_documents):
        try:
            decode(data)
        except ReproError:
            pass


# --------------------------------------------------------------------------- #
# a restore seed's query section
# --------------------------------------------------------------------------- #
def query_key(query):
    return query.query_id, query.k, [(term, weight.hex()) for term, weight in query.weights.items()]


def state_key(state):
    return (
        float(state["tau"]).hex(),
        [float(value).hex() for value in state["thresholds"]],
        list(state["ids"]),
        [float(value).hex() for value in state["scores"]],
    )


def seed_round_trip(queries, states):
    documents, decoded, decoded_states = decode_seed(NO_DOCUMENTS + encode_queries(queries, states))
    assert documents == []
    assert [query_key(query) for query in decoded] == [query_key(query) for query in queries]
    assert {query_id: state_key(state) for query_id, state in decoded_states.items()} == {
        query_id: state_key(state) for query_id, state in states.items()
    }


EDGE_QUERIES = [
    make_query(INT64_MIN, {0: 5e-324, INT64_MAX: 1.0000000000000002}, k=INT64_MAX),
    make_query(INT64_MAX, {7: 0.5}, k=1),
    make_query(0, {1: 0.25, 2: 0.75}, k=3),  # no state
]
EDGE_STATES = {
    INT64_MIN: {"tau": 0.0, "thresholds": [0.0, 0.0], "ids": [], "scores": []},  # empty R
    INT64_MAX: {
        "tau": 5e-324,
        "thresholds": [1.0000000000000002],
        "ids": [INT64_MAX, INT64_MIN, 0],
        "scores": [1.0000000000000002, 1.0, 5e-324],  # 1 ulp apart, then subnormal
    },
}


def test_a_seed_round_trips_its_queries_and_states_bit_exactly():
    seed_round_trip(EDGE_QUERIES, EDGE_STATES)
    seed_round_trip([], {})
    seed_round_trip(EDGE_QUERIES[2:], {})
    # a query may watch a negative term id: the int64 column carries it
    negative = make_query(3, {INT64_MIN: 0.5, -1: 1.0}, k=2)
    seed_round_trip([negative], {3: {"tau": 0.0, "thresholds": [0.0, 0.0], "ids": [], "scores": []}})


query_ids = st.integers(INT64_MIN, INT64_MAX)
query_terms = st.dictionaries(query_ids, weights, min_size=1, max_size=5)
queries = st.lists(
    st.builds(make_query, query_ids, query_terms, st.integers(1, INT64_MAX)),
    max_size=5,
    unique_by=lambda query: query.query_id,
)
recorded = st.fixed_dictionaries({
    "tau": scores.filter(lambda value: value == value),
    "thresholds": st.lists(weights, max_size=5),
    "ids": st.lists(query_ids, max_size=4),
    "scores": st.lists(scores, max_size=4),
})


@given(queries, st.data())
@settings(max_examples=100, deadline=None)
def test_any_queries_and_states_round_trip_bit_exactly(batch, data):
    stated = data.draw(st.sets(st.sampled_from([q.query_id for q in batch])) if batch else st.just(set()))
    states = {query_id: data.draw(recorded) for query_id in stated}
    seed_round_trip(batch, states)


SEED = NO_DOCUMENTS + encode_queries(EDGE_QUERIES, EDGE_STATES)
#: where the query section's count and its state flags sit in SEED
COUNT_AT = len(NO_DOCUMENTS)
FLAGS_AT = COUNT_AT + 4 + 3 * (8 + 8 + 4) + 5 * (8 + 8)


def patched(data, at, value):
    return data[:at] + value + data[at + len(value):]


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(SEED + b"\x00", id="trailing-byte"),
        pytest.param(patched(SEED, COUNT_AT, (4).to_bytes(4, "little")), id="count-past-the-queries"),
        pytest.param(patched(SEED, COUNT_AT, (2).to_bytes(4, "little")), id="count-short-of-the-queries"),
        pytest.param(patched(SEED, FLAGS_AT + 2, b"\x01"), id="a-state-flag-without-a-state"),
        pytest.param(patched(SEED, FLAGS_AT, b"\x02"), id="a-state-flag-of-2"),
    ],
)
def test_a_malformed_query_section_is_a_configuration_error(data):
    with pytest.raises(ConfigurationError):
        decode_seed(data)


def test_every_truncation_of_a_seed_is_a_configuration_error():
    assert SEED[FLAGS_AT : FLAGS_AT + 3] == b"\x01\x01\x00"
    for end in range(len(SEED)):
        with pytest.raises(ConfigurationError):
            decode_seed(SEED[:end])


WINDOW = WindowSpec.count(10)


def envelope(columns):
    return {"version": SNAPSHOT_VERSION, "window": WINDOW.to_dict(), "clock": 3.0, "columns": columns}


def test_a_seeded_state_the_query_cannot_be_in_is_refused_by_the_loader():
    documents = [make_document(doc_id, {7: 0.5}, float(doc_id)) for doc_id in range(3)]
    query = make_query(5, {7: 1.0}, k=2)
    state = {"tau": 0.25, "thresholds": [0.25], "ids": [1, 2], "scores": [0.5, 0.5]}
    good = encode_documents(documents) + encode_queries([query], {5: state})
    engine = restore_into(envelope(good), EngineSpec(kind="ita", window=WINDOW).build())
    assert engine.query_states() == {5: state}
    bad = encode_documents(documents) + encode_queries([query], {5: {**state, "tau": math.nan}})
    with pytest.raises(ConfigurationError, match="query 5: the recorded state has a negative or non-finite"):
        restore_into(envelope(bad), EngineSpec(kind="ita", window=WINDOW).build())


def test_a_worker_sent_a_malformed_seed_answers_an_error_and_serves_on():
    ours, theirs = socket.socketpair()
    worker = ShardWorker(0, EngineSpec(kind="ita", window=WINDOW))
    serving = threading.Thread(target=worker.serve, args=(theirs,), daemon=True)
    serving.start()
    connection = RpcConnection(ours, default_timeout_ms=10_000.0, peer="shard-0")
    try:
        documents = encode_documents([make_document(4, {7: 0.5}, 1.0)])
        for bad in (documents, SEED[:-1], documents + SEED[COUNT_AT:] + b"\x00"):
            with pytest.raises(ConfigurationError):
                connection.call("restore", ({"snapshot": envelope(None)}, bad))
            assert connection.call("ping")["window"] == 0
        good = documents + encode_queries([make_query(5, {7: 1.0})], {})
        connection.call("restore", ({"snapshot": envelope(None)}, good))
        assert connection.call("ping")["query_ids"] == [5]
        assert [(doc_id, score) for doc_id, score in worker.engine.current_result(5)] == [(4, 0.5)]
    finally:
        connection.close()
        serving.join(5.0)
        theirs.close()
    assert not serving.is_alive()


@pytest.mark.parametrize(
    "query",
    [make_query(1, {2**63: 1.0}), make_query(1, {1: 1.0}, k=2**63)],
    ids=["term-id-past-int64", "k-past-int64"],
)
def test_a_proc_cluster_refuses_a_query_its_seed_columns_cannot_carry(query):
    with EngineSpec(kind="sharded-proc", num_shards=1, window=WINDOW).build() as cluster:
        with pytest.raises(QueryError, match="query 1"):
            cluster.register_query(query)
        assert cluster.query_ids() == []
        cluster.register_query(make_query(2, {1: 1.0}))
        assert cluster.query_ids() == [2]


def test_a_proc_cluster_restores_a_query_with_a_negative_term_id():
    def run(engine, doc_id):
        engine.process_batch_events([make_document(doc_id, {1: 0.5}, float(doc_id))])
        return [query["state"] for query in snapshot_engine(engine)["queries"]]

    spec = EngineSpec(kind="sharded-proc", num_shards=2, window=WINDOW)
    with spec.build() as cluster:
        cluster.register_query(make_query(1, {-1: 1.0, 1: 1.0}))
        run(cluster, 1)
        snapshot = snapshot_engine(cluster)
    assert [query["weights"] for query in snapshot["queries"]] == [{"-1": 1.0, "1": 1.0}]
    with spec.build() as restored:
        restore_into(snapshot, restored)
        assert snapshot_engine(restored) == snapshot
        assert run(restored, 2) == run(restore_into(snapshot, EngineSpec(kind="ita", window=WINDOW).build()), 2)
