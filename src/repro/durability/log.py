"""The :class:`DurabilityLog`: a service's write-ahead log plus checkpoints.

The paper's per-query ITA state (the result container ``R``, the local
thresholds ``theta``, ``tau``) is expensive to build and cheap to maintain
-- which is exactly what makes losing it to a crash expensive.  A
:class:`DurabilityLog` binds a :class:`~repro.service.MonitoringService`
to a directory and makes its state recoverable:

* every state-changing service operation -- ``subscribe`` /
  ``unsubscribe`` / ``ingest`` / ``advance_time`` -- is appended to a
  segmented :class:`~repro.durability.wal.WriteAheadLog` *before* it is
  acknowledged, together with any vocabulary growth it caused (an
  ``ingest`` record holds its batch as base64 document columns,
  :func:`repro.persistence.encode_documents`, beside texts and metadata);
* a *checkpoint* (``service.snapshot()`` written atomically, then WAL
  truncation) bounds recovery cost by the checkpoint interval instead of
  the stream length;
* a ``MANIFEST.json`` (written atomically) records the layout, the
  policy, the engine spec and the live checkpoint, so
  :func:`~repro.durability.recovery.recover_service` can re-assemble the
  service without any other input.

Every engine kind, a cluster included, has **one** WAL: the service is the
one writer, and each record is appended once.  A ``subscribe`` record of
a cluster carries the query's ``shard``, which recovery pins the query
on.

Directory layout::

    MANIFEST.json                 # layout, policy, spec, live checkpoint
    checkpoint-<lsn>.json         # the service snapshot covering lsn
    wal/wal-<seq>.jsonl           # the log

Directories written before the one log held a cluster's log as
``shard-<k>/`` directories, one per shard, each with every replicated
record.  Recovery still reads them, merged by ``lsn``; the resumed log
appends to ``wal/``, and its first checkpoint deletes them.
"""

from __future__ import annotations

import json
import os
import shutil
from base64 import b64encode
from pathlib import Path
from time import perf_counter as _perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.observability import runtime as _obs
from repro.observability.slowlog import note_slow

from repro.documents.document import StreamedDocument
from repro.durability.policy import DurabilityPolicy
from repro.durability.wal import WriteAheadLog, segment_paths
from repro.exceptions import DurabilityError
from repro.persistence import encode_documents, query_record
from repro.query.query import ContinuousQuery

__all__ = [
    "DurabilityLog",
    "MANIFEST_NAME",
    "MANIFEST_FORMAT",
    "read_manifest",
    "write_json_atomic",
]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = "repro-wal/1"
_CHECKPOINT_PREFIX = "checkpoint-"
_LSN_DIGITS = 10


_compact = json.JSONEncoder(separators=(",", ":")).encode
_RUN = 64


def _json_pieces(value: Any) -> Iterator[str]:
    """``value`` as compact JSON, in pieces the C encoder makes.

    ``json.dump`` streams but only through the pure-Python encoder (2.4x
    the time on a 1000-document checkpoint); one ``dumps`` of the whole
    payload holds ~100k fragment strings at once (+7 MiB peak RSS on
    ``bulk_durable``).  So containers are opened here and a long list (the
    documents, the queries, the vocabulary) is encoded in runs of ``_RUN``.
    """
    if isinstance(value, list) and len(value) > _RUN:
        for start in range(0, len(value), _RUN):
            yield ("," if start else "[") + _compact(value[start : start + _RUN])[1:-1]
        yield "]"
    elif value and isinstance(value, dict) and all(type(key) is str for key in value):
        opener = "{"
        for key, item in value.items():
            yield opener + _compact(key) + ":"
            yield from _json_pieces(item)
            opener = ","
        yield "}"
    elif value and isinstance(value, list):
        opener = "["
        for item in value:
            yield opener
            yield from _json_pieces(item)
            opener = ","
        yield "]"
    else:
        yield _compact(value)


def write_json_atomic(path: Union[str, Path], payload: Dict[str, Any]) -> None:
    """Write ``payload`` as JSON via a temp file + atomic rename.

    A reader (or a recovery after a crash mid-write) sees either the old
    file or the new one, never a torn half.
    """
    path = Path(path)
    temporary = path.with_name(path.name + ".tmp")
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.writelines(_json_pieces(payload))
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)


def read_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and sanity-check the durability manifest of ``path``.

    Raises
    ------
    DurabilityError
        If the manifest is absent or not one this version understands.
    """
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise DurabilityError(f"no durability manifest at {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") != MANIFEST_FORMAT:
        raise DurabilityError(
            f"unsupported durability manifest format {manifest.get('format')!r}"
        )
    return manifest


def _checkpoint_name(lsn: int) -> str:
    return f"{_CHECKPOINT_PREFIX}{lsn:0{_LSN_DIGITS}d}.json"


def _wal_directories(path: Path) -> List[Path]:
    """The log, and the per-shard logs of a directory written before it."""
    return [path / "wal", *sorted(path.glob("shard-*"))]


class DurabilityLog:
    """The write-ahead log and checkpoint store of one service.

    Construct through :meth:`create` (a fresh durability directory for a
    running service) or :meth:`resume` (re-attach after
    :func:`~repro.durability.recovery.recover_service` replayed the tail);
    services built via :meth:`~repro.service.MonitoringService.open` do
    both for you.
    """

    def __init__(
        self,
        service: Any,
        path: Path,
        policy: DurabilityPolicy,
        manifest: Dict[str, Any],
        next_lsn: int,
        records_since_checkpoint: int = 0,
    ) -> None:
        self._service = service
        self.path = Path(path)
        self.policy = policy
        self._manifest = manifest
        self._next_lsn = next_lsn
        self._records_since_checkpoint = records_since_checkpoint
        self._logged_vocab = len(service.vocabulary)
        #: highest arrival time / clock advance ever logged -- the floor a
        #: new durable batch must respect.  The engine's window clock is
        #: not enough on its own: the async lane may hold logged batches the
        #: engine has not applied yet.
        self._logged_clock: Optional[float] = service.window.clock
        self._closed = False
        self._wal = WriteAheadLog(
            self.path / "wal",
            fsync=policy.fsync,
            fsync_interval=policy.fsync_interval,
            segment_max_records=policy.segment_max_records,
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls, service: Any, path: Union[str, Path], policy: Optional[DurabilityPolicy] = None
    ) -> "DurabilityLog":
        """Initialise a fresh durability directory for ``service``.

        Writes the manifest and takes the initial checkpoint (the current
        service state -- usually empty, but a service wrapped around a
        pre-filled engine checkpoints that state too, so recovery never
        depends on how the service was originally constructed).
        """
        policy = policy if policy is not None else DurabilityPolicy()
        policy.validate()
        path = Path(path)
        if (path / MANIFEST_NAME).exists():
            raise DurabilityError(
                f"{path} already holds a durability manifest; recover it with "
                "MonitoringService.open() instead of creating over it"
            )
        path.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": MANIFEST_FORMAT,
            "layout": "single",
            "policy": policy.to_dict(),
            "spec": service.spec.to_dict() if service.spec is not None else None,
            "checkpoint": None,
        }
        write_json_atomic(path / MANIFEST_NAME, manifest)
        log = cls(service, path, policy, manifest, next_lsn=1)
        log.checkpoint()
        return log

    @classmethod
    def resume(
        cls,
        service: Any,
        path: Union[str, Path],
        manifest: Dict[str, Any],
        last_lsn: int,
        policy: Optional[DurabilityPolicy] = None,
    ) -> "DurabilityLog":
        """Re-attach a log whose tail was just replayed into ``service``."""
        resumed_policy = (
            policy
            if policy is not None
            else DurabilityPolicy.from_dict(manifest.get("policy", {}))
        )
        resumed_policy.validate()
        checkpoint = manifest.get("checkpoint") or {"lsn": 0}
        # A per-shard directory becomes the one log; its next checkpoint
        # deletes the shard logs.
        manifest = dict(manifest, layout="single")
        manifest.pop("num_shards", None)
        return cls(
            service,
            Path(path),
            resumed_policy,
            manifest,
            next_lsn=last_lsn + 1,
            records_since_checkpoint=max(0, last_lsn - int(checkpoint.get("lsn", 0))),
        )

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    @property
    def last_lsn(self) -> int:
        """The sequence number of the most recently appended record."""
        return self._next_lsn - 1

    @property
    def records_since_checkpoint(self) -> int:
        return self._records_since_checkpoint

    @property
    def checkpoint_due(self) -> bool:
        """Whether the automatic-checkpoint period has elapsed."""
        return (
            self.policy.checkpoint_every > 0
            and self._records_since_checkpoint >= self.policy.checkpoint_every
        )

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def logged_clock(self) -> Optional[float]:
        """The highest arrival/advance time appended to the log so far."""
        return self._logged_clock

    # ------------------------------------------------------------------ #
    # logging
    # ------------------------------------------------------------------ #
    def _vocab_delta(self) -> List[str]:
        delta = self._service.vocabulary.terms_from(self._logged_vocab)
        self._logged_vocab += len(delta)
        return delta

    def _append(self, payload: Dict[str, Any], shard: Optional[int] = None) -> int:
        """Append one record; ``shard`` is the shard a subscribe placed its
        query on (recorded so recovery pins the query there)."""
        if self._closed:
            raise DurabilityError("the durability log is closed")
        lsn = self._next_lsn
        record = {"lsn": lsn, **payload}
        if shard is not None:
            record["shard"] = shard
        # Vocabulary growth rides on the record that caused it, so a WAL
        # prefix always pairs documents/queries with the exact term ids
        # they were analysed under.
        delta = self._vocab_delta()
        if delta:
            record["vocab"] = delta
        self._wal.append(record)
        self._next_lsn = lsn + 1
        self._records_since_checkpoint += 1
        return lsn

    def log_ingest(self, batch: Sequence[StreamedDocument]) -> int:
        """Append one ingest record: the batch's columns, texts and metadata."""
        lsn = self._append({
            "op": "ingest",
            "columns": b64encode(encode_documents(batch)).decode("ascii"),
            "texts": [streamed.document.text for streamed in batch],
            "metadata": [dict(streamed.document.metadata) for streamed in batch],
        })
        if batch:
            # The caller validated the batch ascending, so the last
            # arrival is the batch's maximum.
            arrival = batch[-1].arrival_time
            if self._logged_clock is None or arrival > self._logged_clock:
                self._logged_clock = arrival
        return lsn

    def log_subscribe(self, query: ContinuousQuery, shard: Optional[int] = None) -> int:
        """Append a subscribe record (with the query's shard on a cluster)."""
        return self._append({"op": "subscribe", "query": query_record(query)}, shard)

    def log_unsubscribe(self, query_id: int) -> int:
        """Append an unsubscribe record."""
        return self._append({"op": "unsubscribe", "query_id": query_id})

    def log_advance_time(self, now: float) -> int:
        """Append a clock-advance record."""
        lsn = self._append({"op": "advance_time", "now": now})
        if self._logged_clock is None or now > self._logged_clock:
            self._logged_clock = now
        return lsn

    # ------------------------------------------------------------------ #
    # checkpoints
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> Path:
        """Snapshot the service, then truncate the log it covers.

        The crash-safe order is: write the checkpoint file (atomically),
        point the manifest at it (atomically), and only then delete the
        covered segments and the previous checkpoint -- a crash between
        any two steps recovers from a consistent (checkpoint, WAL-tail)
        pair, merely replaying more than strictly necessary.
        """
        if self._closed:
            raise DurabilityError("the durability log is closed")
        observed = _obs.active
        started = _perf_counter() if observed else 0.0
        snapshot = self._service.snapshot()
        lsn = self.last_lsn
        checkpoint_path = self.path / _checkpoint_name(lsn)
        write_json_atomic(checkpoint_path, snapshot)

        previous = self._manifest.get("checkpoint")
        self._manifest["checkpoint"] = {"file": checkpoint_path.name, "lsn": lsn}
        write_json_atomic(self.path / MANIFEST_NAME, self._manifest)

        # Everything appended so far has lsn <= the checkpoint's; rotating
        # makes those segments immutable and deletable as whole files.
        for segment in self._wal.rotate():
            segment.unlink(missing_ok=True)
        for legacy in self.path.glob("shard-*"):
            shutil.rmtree(legacy, ignore_errors=True)
        if previous and previous.get("file") and previous["file"] != checkpoint_path.name:
            (self.path / previous["file"]).unlink(missing_ok=True)

        self._records_since_checkpoint = 0
        self._logged_vocab = len(self._service.vocabulary)
        if observed:
            elapsed_ms = (_perf_counter() - started) * 1000.0
            _obs.counter_child(
                "repro_wal_checkpoints_total", "checkpoints taken"
            ).inc()
            _obs.histogram_child(
                "repro_wal_checkpoint_ms", "checkpoint duration (snapshot to truncation)"
            ).observe(elapsed_ms)
            note_slow("durability.checkpoint", elapsed_ms, lsn=lsn)
        return checkpoint_path

    def maybe_checkpoint(self) -> Optional[Path]:
        """Take a checkpoint iff the automatic period has elapsed."""
        if self.checkpoint_due:
            return self.checkpoint()
        return None

    # ------------------------------------------------------------------ #
    def sync(self) -> None:
        """Force the log to stable storage."""
        self._wal.sync()

    def close(self) -> None:
        """Sync and close the log (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._wal.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({str(self.path)!r}, last_lsn={self.last_lsn})"


def wal_record_count(path: Union[str, Path]) -> int:
    """Total records on disk across every WAL directory under ``path``
    (a per-shard directory counts a replicated record once per shard)."""
    total = 0
    for directory in _wal_directories(Path(path)):
        for segment in segment_paths(directory):
            with open(segment, "r", encoding="utf-8") as handle:
                total += sum(1 for line in handle if line.strip())
    return total
