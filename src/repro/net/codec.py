"""Wire codecs of the worker RPCs and the serving tier.

The serving tier speaks JSON (exact: ``float`` serialisation is
``repr``-based).  Documents and queries reuse the persistence codec
(:func:`repro.persistence.document_record`); this module adds top-k
entries, :class:`~repro.core.base.ResultChange` lists and delivered
:class:`~repro.alerting.Alert` objects.

The shard channel's hot calls ship fixed-width little-endian columns as a
frame attachment instead (:func:`encode_documents`, which lives in
:mod:`repro.persistence` beside the WAL's use of it, and :func:`encode_changes`):
``int64`` ids, floats as their IEEE-754 bytes -- bit-exact by construction
-- and no text.  A truncated, over-long or garbage attachment raises
:class:`~repro.exceptions.RpcTransportError`.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add
from typing import Any, Dict, List, Optional, Sequence

from repro import persistence
from repro.alerting import Alert
from repro.core.base import ResultChange, TopKResult
from repro.documents.document import StreamedDocument
from repro.exceptions import RpcTransportError
from repro.persistence import _Columns, _document_from_record, _pack, _spans, document_record, encode_documents
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
]

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
def decode_documents(data: bytes) -> List[StreamedDocument]:
    """:func:`repro.persistence.decode_documents` without text, failing as a transport error."""
    return persistence.decode_documents(data, error=RpcTransportError)


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
    columns = _Columns(data, RpcTransportError)
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
