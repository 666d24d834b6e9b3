"""Wire codecs shared by the worker RPCs and the serving tier.

Documents and queries reuse the persistence codec
(:func:`repro.persistence.document_record` /
:func:`~repro.persistence.query_record`) -- the snapshot, the WAL and the
wire deliberately speak the same dialect.  This module adds the types only
the RPC layer ships: top-k result entries, per-event
:class:`~repro.core.base.ResultChange` lists, and delivered
:class:`~repro.alerting.Alert` objects.

All encodings are JSON-safe, and scores/arrival times round-trip exactly
(Python's ``float`` serialisation is ``repr``-based), so a result decoded
from the wire compares bit-identical to the in-process one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.alerting import Alert
from repro.core.base import ResultChange, TopKResult
from repro.documents.document import StreamedDocument
from repro.persistence import _document_from_record, document_record
from repro.query.result import ResultEntry

__all__ = [
    "entries_to_wire",
    "entries_from_wire",
    "change_to_wire",
    "change_from_wire",
    "changes_to_wire",
    "changes_from_wire",
    "event_changes_to_wire",
    "event_changes_from_wire",
    "alert_to_wire",
    "alert_from_wire",
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


def event_changes_to_wire(
    per_event: Sequence[Sequence[ResultChange]],
) -> List[List[Dict[str, Any]]]:
    """Encode a batch's event-major change lists (one list per event)."""
    return [changes_to_wire(changes) for changes in per_event]


def event_changes_from_wire(
    data: Sequence[Sequence[Dict[str, Any]]],
) -> List[List[ResultChange]]:
    """Decode :func:`event_changes_to_wire` output."""
    return [changes_from_wire(event) for event in data]


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
