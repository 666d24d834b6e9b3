"""The ingest record's document columns: exact round trips, typed failures."""

import tempfile
from base64 import b64encode

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.documents.document import CompositionList, Document, StreamedDocument
from repro.durability import DurabilityPolicy
from repro.durability.recovery import _replay_record, read_tail
from repro.durability.wal import decode_record, encode_record, segment_paths
from repro.exceptions import DocumentError, WalCorruptionError
from repro.persistence import encode_documents
from repro.query.query import ContinuousQuery
from repro.service import EngineSpec, MonitoringService, WindowSpec
from repro.text.vocabulary import Vocabulary
from tests.conftest import make_document

FAST = DurabilityPolicy(fsync="never", checkpoint_every=0)
INT64_MAX = 2**63 - 1
#: the smallest subnormal and the float right after 1.0
EDGE_FLOATS = [5e-324, 1.0000000000000002]


def ita_spec(durability=None):
    return EngineSpec(kind="ita", window=WindowSpec.count(16), durability=durability)


def streamed(doc_id, terms, arrival, text=None, metadata=None):
    return StreamedDocument(Document(doc_id, CompositionList(terms), text, metadata or {}), arrival)


def document_key(element):
    """A document as exact values: the floats by their hex spelling, the
    composition in its order."""
    document = element.document
    terms = [(term, weight.hex()) for term, weight in document.composition.items()]
    return document.doc_id, element.arrival_time.hex(), terms, document.text, dict(document.metadata)


# --------------------------------------------------------------------------- #
# log_ingest -> read_tail -> replay
# --------------------------------------------------------------------------- #
ids = st.one_of(st.integers(0, INT64_MAX), st.sampled_from([0, INT64_MAX - 1, INT64_MAX]))
weights = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(min_value=5e-324, max_value=1e300, allow_infinity=False)
)
texts = st.one_of(st.none(), st.sampled_from(["", "naïve café ☂", "two\nlines\r\n"]), st.text(max_size=12))
metadata = st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=3)


@st.composite
def batches(draw):
    """A batch the engine accepts: distinct ascending ids, ascending arrivals."""
    rows = draw(st.lists(st.tuples(st.dictionaries(ids, weights, max_size=6), texts, metadata), max_size=5))
    size = len(rows)
    doc_ids = sorted(draw(st.sets(ids, min_size=size, max_size=size)))
    arrivals = sorted(draw(st.lists(st.floats(-1e12, 1e12), min_size=size, max_size=size)))
    return [
        streamed(doc_id, terms, arrival, text, meta)
        for doc_id, arrival, (terms, text, meta) in zip(doc_ids, arrivals, rows)
    ]


@given(batches())
@example([])
@example(
    [
        streamed(5, {INT64_MAX: 5e-324, 0: 1.0000000000000002}, -0.0, None),
        streamed(INT64_MAX - 1, {3: 0.5, 1: 0.25}, 1.0, "", {"source": "wire", "é": "☂"}),
        streamed(INT64_MAX, {2: 1.0}, 2.0, "two\nlines ☂"),
    ]
)
@settings(max_examples=60, deadline=None)
def test_log_ingest_read_tail_replay_is_exact(batch):
    with tempfile.TemporaryDirectory() as directory:
        with MonitoringService.open(directory, ita_spec(FAST)) as service:
            lsn = service.durability.log_ingest(batch)
        (record,) = read_tail(directory, after_lsn=lsn - 1)
    assert "docs" not in record
    with MonitoringService(ita_spec()) as replayed:
        assert _replay_record(replayed, record) == len(batch)
        assert [document_key(s) for s in replayed.window.valid_documents()] == [document_key(s) for s in batch]


# --------------------------------------------------------------------------- #
# a record whose columns do not decode fails closed
# --------------------------------------------------------------------------- #
COLUMNS = encode_documents([make_document(0, {0: 0.5, 1: 0.25}, arrival_time=1.0)])


@pytest.mark.parametrize(
    "columns, texts",
    [
        (b64encode(COLUMNS[:-3]).decode(), [None]),  # truncated
        (b64encode(COLUMNS[:4]).decode(), [None]),  # a count and nothing else
        (b64encode(COLUMNS + b"\x00").decode(), [None]),  # over-long
        (b64encode(b"\xff\xff\xff\xff").decode(), [None]),  # a count past the payload
        ("not base64!", [None]),
        (b64encode(COLUMNS).decode()[:-1], [None]),  # bad padding
        ("Zm9v☂", [None]),  # not ASCII
        (None, [None]),
        (b64encode(COLUMNS).decode(), [None, None]),  # more texts than documents
    ],
    ids=["truncated", "count-only", "over-long", "count-past-end", "not-base64", "padding", "non-ascii",
         "null", "texts-mismatch"],
)
def test_a_record_whose_columns_do_not_decode_is_wal_corruption(tmp_path, columns, texts):
    with MonitoringService.open(tmp_path, ita_spec(FAST)) as service:
        service.ingest(make_document(0, {0: 0.5, 1: 0.25}, arrival_time=1.0))
        service.subscribe(ContinuousQuery(0, {0: 1.0}, k=1))
    (segment,) = segment_paths(tmp_path / "wal")
    lines = segment.read_text().splitlines()
    record = decode_record(lines[0])
    assert record["op"] == "ingest"
    # A well-formed envelope (its CRC passes) around bad columns, and not
    # the torn tail: the subscribe record follows it.
    record.update(columns=columns, texts=texts, metadata=[{}] * len(texts))
    segment.write_text("\n".join([encode_record(record), *lines[1:]]) + "\n")
    with pytest.raises(WalCorruptionError):
        MonitoringService.open(tmp_path)


# --------------------------------------------------------------------------- #
# ids the columns cannot hold are refused before the WAL takes them
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "document",
    [make_document(2**63, {0: 0.5}, arrival_time=2.0), make_document(1, {2**63: 0.5}, arrival_time=2.0)],
    ids=["doc-id", "term-id"],
)
def test_ids_outside_int64_fail_typed_before_logging(tmp_path, document):
    service = MonitoringService.open(tmp_path, ita_spec(FAST))
    service.subscribe(ContinuousQuery(0, {0: 1.0}, k=2))
    service.ingest(make_document(0, {0: 0.5}, arrival_time=1.0))
    before, window = service.durability.last_lsn, len(service.window)
    with pytest.raises(DocumentError, match="int64"):
        service.ingest([make_document(1, {0: 0.25}, arrival_time=1.5), document])
    assert service.durability.last_lsn == before  # nothing logged
    assert len(service.window) == window  # nothing applied
    service.ingest(make_document(1, {0: 0.75}, arrival_time=3.0))
    results = service.results()
    assert [entry.doc_id for entry in results[0]] == [1, 0]
    del service  # crash

    recovered = MonitoringService.open(tmp_path)
    assert recovered.results() == results
    recovered.close()


# --------------------------------------------------------------------------- #
# vocabulary growth is logged in O(new terms)
# --------------------------------------------------------------------------- #
def test_terms_from_is_the_id_ordered_tail():
    vocabulary = Vocabulary(["a", "b", "c"])
    assert vocabulary.terms_from(1) == ["b", "c"]
    assert vocabulary.terms_from(3) == [] == vocabulary.terms_from(7)


def test_a_record_logs_exactly_the_new_terms_without_copying_the_vocabulary(tmp_path, monkeypatch):
    service = MonitoringService.open(tmp_path, ita_spec(FAST))
    service.vocabulary.add_all(f"term{index}" for index in range(20_000))
    service.checkpoint()
    # Every record after the checkpoint carries only what it added.
    monkeypatch.setattr(Vocabulary, "__iter__", lambda self: pytest.fail("the vocabulary was copied"))
    service.ingest("zebra quokka axolotl")
    service.ingest("quokka zebra")
    service.subscribe("axolotl narwhal", k=1)
    monkeypatch.undo()
    records = read_tail(tmp_path, after_lsn=service.durability.last_lsn - 3)
    assert [record.get("vocab") for record in records] == [["zebra", "quokka", "axolotl"], None, ["narwhal"]]
    assert service.vocabulary.terms_from(20_000) == ["zebra", "quokka", "axolotl", "narwhal"]
    expected = service.results()
    service.close()

    recovered = MonitoringService.open(tmp_path)
    assert recovered.vocabulary.terms_from(20_000) == ["zebra", "quokka", "axolotl", "narwhal"]
    assert recovered.results() == expected
    recovered.close()


def test_a_vocabulary_delta_that_names_a_known_term_is_corruption(tmp_path):
    """Re-adding a known term is a no-op that would shift every later id."""
    service = MonitoringService(ita_spec())
    service.vocabulary.add_all(["alpha", "beta"])
    record = {"lsn": 3, "op": "advance_time", "now": 1.0, "vocab": ["gamma", "alpha", "delta"]}
    with pytest.raises(WalCorruptionError, match="lsn=3 re-adds the term 'alpha'"):
        _replay_record(service, record)
    service.close()
