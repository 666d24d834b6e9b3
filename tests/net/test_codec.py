"""The shard channel's binary codecs: bit-exact round trips, fail-closed decoding."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.base import ResultChange
from repro.exceptions import ReproError, RpcTransportError
from repro.net.codec import decode_changes, decode_documents, encode_changes, encode_documents
from repro.query.result import ResultEntry
from tests.conftest import make_document

INT64_MAX = 2**63 - 1
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
    for decode in (decode_documents, decode_changes):
        try:
            decode(data)
        except ReproError:
            pass
