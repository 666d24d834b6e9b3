"""The change stream's three value types are tuples that kept their contract.

:class:`~repro.query.result.ResultEntry`,
:class:`~repro.core.base.ResultChange` and :class:`~repro.alerting.Alert`
were frozen dataclasses and are ``typing.NamedTuple`` classes of the same
names, fields, order, defaults and properties.  What callers relied on --
keyword construction, immutability, hashability, pickling -- is pinned here
for all three at once, next to the consequences a caller can newly see
(they unpack, equal a plain tuple, take ``_replace``), and the bytes that
reach a socket, a snapshot or the WAL are compared with strings captured at
the last commit that still had the dataclasses: the wire never sees the
tuples themselves.
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.alerting import Alert
from repro.core.base import ResultChange
from repro.durability.recovery import _replay_record
from repro.durability.wal import decode_record
from repro.net.codec import (
    alert_from_wire,
    alert_to_wire,
    change_from_wire,
    change_to_wire,
    entries_from_wire,
    entries_to_wire,
)
from repro.query.result import ResultEntry
from repro.queryscale import QueryScaleOptions
from repro.service import EngineSpec, MonitoringService
from tests.conftest import make_document

ENTERED = (ResultEntry(7, 0.5), ResultEntry(9, 0.25))
LEFT = (ResultEntry(2, 0.125),)
CHANGE = ResultChange(3, ENTERED, LEFT)
DOCUMENT = make_document(7, {1: 0.6, 4: 0.8}, arrival_time=2.5)

#: (class, field names in order, one value per field).  The alert is an
#: expiry alert: a document holds a metadata dict, so an alert that carries
#: one never hashed or pickled, as a dataclass or now.
TYPES = [
    pytest.param(ResultEntry, ("doc_id", "score"), (7, 0.5), id="ResultEntry"),
    pytest.param(ResultChange, ("query_id", "entered", "left"), (3, ENTERED, LEFT), id="ResultChange"),
    pytest.param(Alert, ("change", "document"), (CHANGE, None), id="Alert"),
]
each_type = pytest.mark.parametrize("cls, fields, values", TYPES)


@each_type
class TestValueContract:
    def test_fields_in_order_positional_and_keyword(self, cls, fields, values):
        assert cls._fields == fields
        value = cls(*values)
        assert value == cls(**dict(zip(fields, values)))
        assert type(value) is cls
        for name, expected in zip(fields, values):
            assert getattr(value, name) is expected
        assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")

    def test_assignment_raises_attribute_error(self, cls, fields, values):
        value = cls(*values)
        for name in fields + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(value, name, values[0])
        with pytest.raises(AttributeError):
            delattr(value, fields[0])
        assert value == cls(*values)

    def test_equal_values_hash_equal(self, cls, fields, values):
        first, second = cls(*values), cls(*values)
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        different = first._replace(**{fields[0]: None})
        assert different != first

    def test_pickle_keeps_the_class(self, cls, fields, values):
        value = cls(*values)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(value, protocol))
            assert type(restored) is cls
            assert restored == value

    def test_what_a_tuple_adds(self, cls, fields, values):
        value = cls(*values)
        assert tuple(value) == values and value == values
        (*unpacked,) = value
        assert unpacked == list(values)
        replaced = value._replace(**{fields[-1]: values[-1]})
        assert type(replaced) is cls and replaced == value and replaced is not value
        assert value._asdict() == dict(zip(fields, values))


class TestDefaultsAndProperties:
    def test_a_change_defaults_to_nothing_entered_or_left(self):
        assert ResultChange(3) == ResultChange(3, (), ()) == ResultChange(query_id=3)
        assert not ResultChange(3).changed
        assert ResultChange(3, entered=ENTERED).changed and ResultChange(3, left=LEFT).changed

    @pytest.mark.parametrize("cls, arguments", [(ResultEntry, (7,)), (Alert, (CHANGE,)), (ResultChange, ())])
    def test_the_other_fields_are_required(self, cls, arguments):
        with pytest.raises(TypeError):
            cls(*arguments)

    def test_an_alert_names_its_query(self):
        assert Alert(CHANGE, None).query_id == 3
        assert Alert(CHANGE, None).document is None


class TestWireRoundTrip:
    def test_entries(self):
        decoded = entries_from_wire(json.loads(json.dumps(entries_to_wire(ENTERED))))
        assert decoded == list(ENTERED)
        assert all(type(entry) is ResultEntry for entry in decoded)

    @pytest.mark.parametrize("change", [CHANGE, ResultChange(4), ResultChange(5, left=LEFT)])
    def test_change(self, change):
        decoded = change_from_wire(json.loads(json.dumps(change_to_wire(change))))
        assert decoded == change
        assert type(decoded) is ResultChange
        assert type(decoded.entered) is tuple and type(decoded.left) is tuple
        assert all(type(entry) is ResultEntry for entry in decoded.entered + decoded.left)

    @pytest.mark.parametrize("document", [DOCUMENT, None])
    def test_alert(self, document):
        alert = Alert(CHANGE, document)
        decoded = alert_from_wire(json.loads(json.dumps(alert_to_wire(alert))))
        assert type(decoded) is Alert and type(decoded.change) is ResultChange
        assert decoded.change == CHANGE
        if document is None:
            assert decoded.document is None
        else:
            assert decoded.document.doc_id == document.doc_id
            assert decoded.document.arrival_time == document.arrival_time
            assert dict(decoded.document.document.composition.items()) == {1: 0.6, 4: 0.8}


# --------------------------------------------------------------------------- #
# bytes: what json.dumps wrote at 5f04a5e, the last commit with the dataclasses
# --------------------------------------------------------------------------- #
TEXTS = [
    "breaking news about markets",
    "storm warning for the coast",
    "market rally on news",
    "severe storm warning issued",
    "market news",
]


def captured_bytes(tmp_path):
    """One wire change, one wire alert, a snapshot that stores result entries
    (a hibernated query's top-k) less its awake queries' recorded states,
    and the WAL's ingest record, as JSON text."""
    alerts = []
    options = QueryScaleOptions(hibernate_after=2)
    with MonitoringService.open(tmp_path / "wal", EngineSpec(queryscale=options)) as service:
        service.subscribe("market news", k=1, on_change=alerts.append)
        service.subscribe("storm warning", k=1)
        changes = [change for text in TEXTS for change in service.ingest(text)]
        snapshot = service.snapshot()
    assert "entries" in json.dumps(snapshot), "no hibernated query: the snapshot stores no entries"
    # Query states came later and are additive: without them the bytes
    # are still the parent's.
    for record in snapshot["engine"]["queries"]:
        del record["state"]
    (segment,) = sorted((tmp_path / "wal" / "wal").glob("*.jsonl"))
    ingests = [line for line in segment.read_text().splitlines() if '"op":"ingest"' in line]
    return {
        "change": json.dumps(change_to_wire(changes[-1])),
        "alert": json.dumps(alert_to_wire(alerts[-1])),
        "snapshot": json.dumps(snapshot),
        "wal_ingest": ingests[-1],
    }


PARENT_BYTES = json.loads((Path(__file__).parent / "data" / "change_bytes_5f04a5e.json").read_text())
#: the same ingest record since it carries document columns
COLUMNAR_WAL_INGEST = (
    '{"columns":"AQAAAAQAAAAAAAAAAAAAAAAAFEACAAAAAAAAAAAAAAABAAAAAAAAAMw7f2aeoOY/zDt/Zp6g5j8=",'
    '"lsn":10,"metadata":[{}],"op":"ingest","texts":["market news"],"crc":3714598179}'
)


@pytest.mark.parametrize("name", ["change", "alert", "snapshot"])
def test_bytes_equal_the_parents(name, tmp_path):
    assert captured_bytes(tmp_path)[name] == PARENT_BYTES[name]


def test_the_wal_ingest_line_is_columnar_and_the_parents_line_replays_the_same(tmp_path):
    assert captured_bytes(tmp_path)["wal_ingest"] == COLUMNAR_WAL_INGEST
    replayed = []
    for line in (PARENT_BYTES["wal_ingest"], COLUMNAR_WAL_INGEST):
        with MonitoringService(EngineSpec()) as service:
            assert _replay_record(service, decode_record(line)) == 1
            (streamed,) = service.window.valid_documents()
            document = streamed.document
            weights = [(term, weight.hex()) for term, weight in document.composition.items()]
            replayed.append((document.doc_id, streamed.arrival_time.hex(), weights, document.text, document.metadata))
    half = (0.7071067811865475).hex()
    assert replayed[0] == replayed[1] == (4, (5.0).hex(), [(0, half), (1, half)], "market news", {})
