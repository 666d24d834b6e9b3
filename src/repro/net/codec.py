"""Wire codecs of the worker RPCs and the serving tier.

The serving tier speaks JSON (exact: ``float`` serialisation is
``repr``-based).  Documents and queries reuse the persistence codec
(:func:`repro.persistence.document_record`); this module adds top-k
entries, :class:`~repro.core.base.ResultChange` lists and delivered
:class:`~repro.alerting.Alert` objects.

The shard channel's hot calls ship fixed-width little-endian columns as a
frame attachment instead (:func:`encode_documents`, :func:`encode_changes`):
``int64`` ids, floats as their IEEE-754 bytes -- bit-exact by construction
-- and no text.  A truncated, over-long or garbage attachment raises
:class:`~repro.exceptions.RpcTransportError`.
"""

from __future__ import annotations

import struct
from itertools import accumulate, chain, repeat
from operator import add
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.alerting import Alert
from repro.core.base import ResultChange, TopKResult
from repro.documents.document import CompositionList, Document, StreamedDocument
from repro.exceptions import RpcTransportError
from repro.persistence import _document_from_record, document_record
from repro.query.result import ResultEntry

__all__ = [
    "entries_to_wire",
    "entries_from_wire",
    "change_to_wire",
    "change_from_wire",
    "changes_to_wire",
    "changes_from_wire",
    "alert_to_wire",
    "alert_from_wire",
    "encode_documents",
    "decode_documents",
    "encode_changes",
    "decode_changes",
    "INT64",
]

#: the ids the shard channel's columns carry
INT64 = range(-(2**63), 2**63)


# --------------------------------------------------------------------------- #
# result entries
# --------------------------------------------------------------------------- #
def entries_to_wire(entries: Sequence[ResultEntry]) -> List[List[Any]]:
    """Encode a top-k result as ``[[doc_id, score], ...]`` (rank order)."""
    return [[doc_id, score] for doc_id, score in entries]


def entries_from_wire(data: Sequence[Sequence[Any]]) -> TopKResult:
    """Decode :func:`entries_to_wire` output."""
    return [ResultEntry(int(doc_id), float(score)) for doc_id, score in data]


# --------------------------------------------------------------------------- #
# result changes
# --------------------------------------------------------------------------- #
def change_to_wire(change: ResultChange) -> Dict[str, Any]:
    """Encode one per-query result change."""
    return {
        "query_id": change.query_id,
        "entered": entries_to_wire(change.entered),
        "left": entries_to_wire(change.left),
    }


def change_from_wire(data: Dict[str, Any]) -> ResultChange:
    """Decode :func:`change_to_wire` output."""
    return ResultChange(
        int(data["query_id"]),
        tuple(entries_from_wire(data.get("entered", ()))),
        tuple(entries_from_wire(data.get("left", ()))),
    )


def changes_to_wire(changes: Sequence[ResultChange]) -> List[Dict[str, Any]]:
    """Encode one event's change list."""
    return [change_to_wire(change) for change in changes]


def changes_from_wire(data: Sequence[Dict[str, Any]]) -> List[ResultChange]:
    """Decode :func:`changes_to_wire` output."""
    return [change_from_wire(entry) for entry in data]


# --------------------------------------------------------------------------- #
# alerts (the serving tier's change deliveries)
# --------------------------------------------------------------------------- #
def alert_to_wire(alert: Alert) -> Dict[str, Any]:
    """Encode one delivered alert (triggering document included, if any)."""
    record: Dict[str, Any] = {"change": change_to_wire(alert.change)}
    if alert.document is not None:
        record["document"] = document_record(alert.document)
    return record


def alert_from_wire(data: Dict[str, Any]) -> Alert:
    """Decode :func:`alert_to_wire` output."""
    document: Optional[StreamedDocument] = None
    if data.get("document") is not None:
        document = _document_from_record(data["document"])
    return Alert(change_from_wire(data["change"]), document)


# --------------------------------------------------------------------------- #
# the shard channel's binary columns
# --------------------------------------------------------------------------- #
def _pack(*columns: Tuple[str, Sequence[Any]]) -> bytes:
    """The first column's length as a ``uint32``, then every column, little-endian."""
    layout = "".join(f"{len(values)}{code}" for code, values in columns)
    values = chain.from_iterable(values for _, values in columns)
    return struct.pack(f"<I{layout}", len(columns[0][1]), *values)


class _Columns:
    """Little-endian columns read off an attachment in order, bounds-checked."""

    def __init__(self, data: bytes) -> None:
        self.data, self.offset = data, 0

    def take(self, code: str, count: int, last: bool = False) -> Tuple[Any, ...]:
        """The next ``count`` values of struct ``code``; the ``last`` column must end the data."""
        end = self.offset + count * struct.calcsize(code)
        if end > len(self.data) or (last and end != len(self.data)):
            raise RpcTransportError(f"a {len(self.data)}-byte attachment does not hold its columns")
        values, self.offset = struct.unpack_from(f"<{count}{code}", self.data, self.offset), end
        return values


def encode_documents(batch: Sequence[StreamedDocument]) -> bytes:
    """A document batch as columns: ids, arrival times, term counts, terms, weights."""
    compositions = [streamed.composition.weights for streamed in batch]
    return _pack(
        ("q", [streamed.doc_id for streamed in batch]),
        ("d", [streamed.arrival_time for streamed in batch]),
        ("I", [len(weights) for weights in compositions]),
        ("q", list(chain.from_iterable(compositions))),
        ("d", list(chain.from_iterable(weights.values() for weights in compositions))),
    )


def _spans(lengths: Iterable[int]) -> Iterator[Tuple[int, int]]:
    """``(start, end)`` of each of back-to-back runs of ``lengths``."""
    ends = list(accumulate(lengths))
    return zip([0] + ends, ends)


def decode_documents(data: bytes) -> List[StreamedDocument]:
    """Decode :func:`encode_documents` output (no text, no metadata)."""
    columns = _Columns(data)
    (count,) = columns.take("I", 1)
    doc_ids, arrivals, lengths = columns.take("q", count), columns.take("d", count), columns.take("I", count)
    terms, weights = columns.take("q", sum(lengths)), columns.take("d", sum(lengths), last=True)
    return [
        StreamedDocument(Document(doc_id, CompositionList(dict(zip(terms[a:b], weights[a:b])))), arrival)
        for doc_id, arrival, (a, b) in zip(doc_ids, arrivals, _spans(lengths))
    ]


def encode_changes(per_event: Sequence[Sequence[ResultChange]]) -> bytes:
    """Event-major change lists as columns: changes per event, query ids,
    entered and left counts, then every entry's doc id and score."""
    changes = list(chain.from_iterable(per_event))
    entries = [entry for change in changes for entry in chain(change.entered, change.left)]
    return _pack(
        ("I", [len(event) for event in per_event]),
        ("q", [change.query_id for change in changes]),
        ("I", [len(change.entered) for change in changes]),
        ("I", [len(change.left) for change in changes]),
        ("q", [doc_id for doc_id, _ in entries]),
        ("d", [score for _, score in entries]),
    )


def decode_changes(data: bytes) -> List[List[ResultChange]]:
    """Decode :func:`encode_changes` output (``tuple.__new__`` skips the
    named tuples' Python-level constructors: this runs per shard per batch)."""
    columns = _Columns(data)
    (events,) = columns.take("I", 1)
    per_event = columns.take("I", events)
    query_ids, entered, left = (columns.take(code, sum(per_event)) for code in "qII")
    size = sum(entered) + sum(left)
    pairs = zip(columns.take("q", size), columns.take("d", size, last=True))
    entries = tuple(map(tuple.__new__, repeat(ResultEntry), pairs))
    changes = [
        tuple.__new__(ResultChange, (query_id, entries[a : a + entering], entries[a + entering : b]))
        for query_id, entering, (a, b) in zip(query_ids, entered, _spans(map(add, entered, left)))
    ]
    return [changes[a:b] for a, b in _spans(per_event)]
