"""Crash recovery: checkpoint + WAL tail -> a running service.

Recovery is deliberately boring: load the last checkpoint with the normal
:meth:`~repro.service.MonitoringService.restore` path, then replay the WAL
tail **through the normal event path** -- ``ingest`` for documents,
engine-level query registration pinned to the recorded shard, the
service's ``advance_time`` for clock advances.  Because replay reuses the
exact code the uninterrupted run executed, the recovered state is
bit-identical to the uninterrupted run at the same record boundary on
tie-free workloads (the kill-point tests in ``tests/durability/`` pin this
down against the conformance-fuzz tapes).

Ingest columns that do not decode (:func:`repro.persistence.decode_documents`)
are a :class:`~repro.exceptions.WalCorruptionError`; the ``"docs"`` of a
record written before the columns still replay.

A cluster's ``subscribe`` records carry the shard index, so every query
returns to exactly the shard that hosted it.  A directory written before
the one log holds per-shard logs (``shard-<k>/``): they are merged by
``lsn`` with the log -- a replicated record appears in every shard's log
under the same ``lsn`` and is applied once, and a record torn out of one
shard's tail but intact in another's is still recovered.
"""

from __future__ import annotations

import json
import time
from base64 import b64decode
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.documents.document import StreamedDocument
from repro.observability import runtime as _obs

from repro.durability.log import (
    MANIFEST_NAME,
    DurabilityLog,
    _wal_directories,
    read_manifest,
)
from repro.durability.policy import DurabilityPolicy
from repro.durability.wal import read_wal_records
from repro.exceptions import DurabilityError, WalCorruptionError
from repro.persistence import _document_from_record, _query_from_record, decode_documents

__all__ = ["RecoveryReport", "recover_service", "read_tail"]


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery did, for logging and for the recovery benchmark."""

    path: str
    #: the lsn covered by the checkpoint recovery started from
    checkpoint_lsn: int
    #: the last lsn found in the WAL tail (== checkpoint_lsn when empty)
    last_lsn: int
    #: WAL records replayed past the checkpoint
    replayed_records: int
    #: documents contained in the replayed ingest records
    replayed_documents: int
    #: wall-clock recovery time (checkpoint load + replay), milliseconds
    duration_ms: float
    #: per-phase wall-clock breakdown: ``manifest`` (read + validate),
    #: ``checkpoint_load`` (read the checkpoint JSON), ``restore``
    #: (rebuild the service from it), ``replay`` (WAL tail through the
    #: normal event path).  The phases sum to roughly ``duration_ms``.
    phase_ms: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-compatible rendering (what the smoke tooling publishes)."""
        return {
            "path": self.path,
            "checkpoint_lsn": self.checkpoint_lsn,
            "last_lsn": self.last_lsn,
            "replayed_records": self.replayed_records,
            "replayed_documents": self.replayed_documents,
            "duration_ms": round(self.duration_ms, 3),
            "phase_ms": {phase: round(ms, 3) for phase, ms in self.phase_ms.items()},
        }


def read_tail(
    path: Union[str, Path], after_lsn: int, repair: bool = False
) -> List[Dict[str, Any]]:
    """The merged, lsn-ordered WAL records of ``path`` past ``after_lsn``.

    ``repair=True`` (what :func:`recover_service` passes) truncates any
    torn tail from disk while reading, so the next recovery -- which will
    find the resumed writer's records in *later* segments -- does not
    mistake the old crash residue for corruption.
    """
    merged: Dict[int, Dict[str, Any]] = {}
    for directory in _wal_directories(Path(path)):
        for record in read_wal_records(directory, after_lsn=after_lsn, repair=repair):
            lsn = int(record["lsn"])
            existing = merged.get(lsn)
            if existing is None:
                merged[lsn] = record
            elif existing != record:
                raise WalCorruptionError(
                    f"shard logs disagree on WAL record lsn={lsn}"
                )
    return [merged[lsn] for lsn in sorted(merged)]


def _ingested_documents(record: Dict[str, Any]) -> List[StreamedDocument]:
    """An ingest record's batch: its columns, texts and metadata, or its legacy ``"docs"``."""
    if "docs" in record:
        return [_document_from_record(entry) for entry in record["docs"]]
    try:
        columns = b64decode(record["columns"], validate=True)
    except (TypeError, ValueError) as error:  # binascii.Error is a ValueError
        raise WalCorruptionError(f"WAL record lsn={record.get('lsn')} holds no base64 columns") from error
    return decode_documents(columns, record["texts"], record["metadata"], error=WalCorruptionError)


def _replay_record(service: Any, record: Dict[str, Any]) -> int:
    """Apply one WAL record through the normal event path.

    Returns the number of documents the record carried (for the report).
    """
    vocabulary = service.vocabulary
    for term in record.get("vocab", ()):
        if term in vocabulary:
            # Re-adding it would be a silent no-op that shifts every later
            # term's id off the ids the log's documents were analysed under.
            raise WalCorruptionError(f"WAL record lsn={record.get('lsn')} re-adds the term {term!r}")
        vocabulary.add(term)
    op = record.get("op")
    if op == "ingest":
        documents = _ingested_documents(record)
        service.ingest(documents)
        return len(documents)
    if op == "subscribe":
        query = _query_from_record(record["query"])
        shard = record.get("shard")
        service._replay_subscribe(query, int(shard) if shard is not None else None)
        return 0
    if op == "unsubscribe":
        service._replay_unsubscribe(int(record["query_id"]))
        return 0
    if op == "advance_time":
        service.advance_time(float(record["now"]))
        return 0
    if op in ("hibernate", "wake"):
        service._replay_queryscale(record)
        return 0
    raise DurabilityError(f"unknown WAL op {op!r} at lsn {record.get('lsn')}")


def recover_service(
    path: Union[str, Path],
    analyzer: Any = None,
    weighting: Any = None,
    interarrival: float = 1.0,
    policy: Optional[DurabilityPolicy] = None,
) -> Tuple[Any, "RecoveryReport"]:
    """Rebuild the durable service persisted at ``path``.

    Returns
    -------
    (MonitoringService, RecoveryReport)
        The recovered service -- with its :class:`DurabilityLog`
        re-attached, so it keeps logging where the crashed process
        stopped -- and a report of what recovery replayed.  Subscription
        callbacks are not persisted; re-attach them with
        :meth:`~repro.service.MonitoringService.handle`.

    Raises
    ------
    DurabilityError
        If ``path`` holds no recoverable state (missing/unreadable
        manifest or checkpoint).
    WalCorruptionError
        If a WAL record fails its integrity check anywhere but the torn
        tail, an ingest record's columns do not decode, a record's
        vocabulary delta names a term already known, or shard logs
        disagree on a shared record.
    """
    # Imported lazily: repro.service.service imports repro.service.spec,
    # which imports this package's policy module.
    from repro.service.service import MonitoringService

    started = time.perf_counter()
    path = Path(path)
    manifest = read_manifest(path)
    manifest_done = time.perf_counter()

    checkpoint_info = manifest.get("checkpoint")
    if not checkpoint_info or not checkpoint_info.get("file"):
        raise DurabilityError(
            f"durability manifest at {path / MANIFEST_NAME} records no checkpoint"
        )
    checkpoint_path = path / str(checkpoint_info["file"])
    if not checkpoint_path.is_file():
        raise DurabilityError(f"checkpoint file {checkpoint_path} is missing")
    with open(checkpoint_path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    checkpoint_lsn = int(checkpoint_info.get("lsn", 0))
    checkpoint_done = time.perf_counter()

    service = MonitoringService.restore(
        snapshot,
        analyzer=analyzer,
        weighting=weighting,
        interarrival=interarrival,
    )
    restore_done = time.perf_counter()

    tail = read_tail(path, after_lsn=checkpoint_lsn, repair=True)
    replayed_documents = 0
    last_lsn = checkpoint_lsn
    for record in tail:
        replayed_documents += _replay_record(service, record)
        last_lsn = int(record["lsn"])
    replay_done = time.perf_counter()

    service._durability = DurabilityLog.resume(
        service, path, manifest, last_lsn, policy=policy
    )
    phase_ms = {
        "manifest": (manifest_done - started) * 1000.0,
        "checkpoint_load": (checkpoint_done - manifest_done) * 1000.0,
        "restore": (restore_done - checkpoint_done) * 1000.0,
        "replay": (replay_done - restore_done) * 1000.0,
    }
    if _obs.active:
        _obs.metrics.counter("repro_recovery_total", "crash recoveries performed").inc()
        family = _obs.metrics.histogram(
            "repro_recovery_phase_ms",
            "recovery phase duration breakdown",
            labels=("phase",),
        )
        for phase, elapsed in phase_ms.items():
            family.labels(phase=phase).observe(elapsed)
    return service, RecoveryReport(
        path=str(path),
        checkpoint_lsn=checkpoint_lsn,
        last_lsn=last_lsn,
        replayed_records=len(tail),
        replayed_documents=replayed_documents,
        duration_ms=(time.perf_counter() - started) * 1000.0,
        phase_ms=phase_ms,
    )
