"""The worker process hosting one engine shard behind framed RPC.

A :class:`ShardWorker` owns one inner monitoring engine (built from the
shard's :class:`~repro.service.spec.EngineSpec`), its own per-shard
write-ahead log and checkpoint, and serves the coordinator's RPCs over a
single socket.  The :class:`~repro.net.cluster.ProcessClusterEngine`
spawns one per shard via :func:`worker_main`.

**Durability discipline.**  Every state-changing RPC (``ingest``,
``advance_time``, ``subscribe``, ``unsubscribe``) carries a coordinator
log-sequence number.  The worker *applies first, then logs, then acks*:
the coordinator's mirror window pre-validates arrivals, so an apply
failure means a rejected operation that must not poison the WAL, while a
crash between apply and log only loses in-memory state the retry rebuilds
from the log.  A retry of the last acked lsn returns the cached response
(exactly-once under coordinator-driven restarts); an older lsn is a bug
and raises :class:`~repro.exceptions.DurabilityError`.

**Recovery.**  On a non-fresh start the worker restores the last
checkpoint (``checkpoint.json``), replays the WAL tail after the
checkpoint lsn with ``repair=True`` (a torn final record is a crash
artifact), recomputes and re-caches the final response, and opens a fresh
WAL segment.  Checkpoints are written atomically every
``checkpoint_every`` applied records, after which the previous WAL
segments are deleted -- replay time stays bounded.

**Graceful shutdown** (SIGTERM/SIGINT or coordinator EOF): the in-flight
request drains, the WAL is synced, a final checkpoint is written, and the
process exits 0.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import socket
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.durability.log import write_json_atomic
from repro.durability.wal import WriteAheadLog, read_wal_records
from repro.exceptions import DurabilityError, NetworkError, RpcTransportError
from repro.net.codec import changes_to_wire, entries_to_wire, event_changes_to_wire
from repro.net.protocol import error_payload, recv_frame, send_frame
from repro.observability import runtime as _obs
from repro.persistence import (
    _document_from_record,
    _query_from_record,
    restore_into,
    snapshot_engine,
)

__all__ = ["ShardWorker", "worker_main", "CHECKPOINT_FORMAT"]

#: format marker of the per-shard checkpoint manifest
CHECKPOINT_FORMAT = "repro-shard-checkpoint/1"

#: the RPC methods that mutate engine state (and therefore carry an lsn,
#: get logged, and are deduplicated on retry)
_MUTATING_METHODS = frozenset({"ingest", "advance_time", "subscribe", "unsubscribe"})

#: how often the serve loop wakes up to notice a stop signal (seconds)
_POLL_SECONDS = 0.5


def _registry_samples() -> List[List[Any]]:
    """Flatten the worker's metrics registry into wire-friendly samples.

    Each sample is ``[name, labels, value]``; histograms contribute their
    ``_count`` and ``_sum`` (the coordinator re-exposes them as collected
    gauges, which is what a scrape can meaningfully aggregate).
    """
    samples: List[List[Any]] = []
    if not _obs.active:
        return samples
    for family in _obs.metrics.families():
        for label_values, instrument in family.children():
            labels = dict(zip(family.label_names, label_values))
            if family.kind == "histogram":
                samples.append([family.name + "_count", labels, float(instrument.count)])
                samples.append([family.name + "_sum", labels, float(instrument.sum)])
            else:
                samples.append([family.name, labels, float(instrument.value)])
    for (name, labels), value in _obs.metrics._collected().items():
        samples.append([name, dict(labels), float(value)])
    return samples


class ShardWorker:
    """One engine shard, its WAL and checkpoint, and the RPC handlers.

    Parameters
    ----------
    shard_index:
        This worker's shard number (labels, error messages, diagnostics).
    spec:
        The *shard* spec (an inner engine kind such as ``"ita"``); fresh
        start and checkpoint recovery both build the engine with
        ``spec.build()``.
    directory:
        The shard's private state directory, holding ``checkpoint.json``
        and the ``wal/`` segments.
    checkpoint_every:
        Checkpoint + truncate the WAL every this many applied records.
    fresh:
        When True the directory is wiped first (initial spawn); a restart
        passes False and recovers from checkpoint + WAL tail.
    """

    def __init__(
        self,
        shard_index: int,
        spec: Any,
        directory: os.PathLike,
        checkpoint_every: int = 512,
        fresh: bool = False,
    ) -> None:
        self.shard_index = int(shard_index)
        self.spec = spec
        self.directory = Path(directory)
        self.checkpoint_every = max(1, int(checkpoint_every))
        self._last_lsn = 0
        self._last_response: Optional[Dict[str, Any]] = None
        self._since_checkpoint = 0
        self._stop = False
        self._closed = False
        if fresh and self.directory.exists():
            shutil.rmtree(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._checkpoint_path = self.directory / "checkpoint.json"
        self._wal_dir = self.directory / "wal"
        self.engine = self._recover()
        self._wal = WriteAheadLog(self._wal_dir)

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def _recover(self) -> Any:
        """Checkpoint restore plus WAL-tail replay; returns the engine."""
        engine = self.spec.build()
        if self._checkpoint_path.exists():
            with open(self._checkpoint_path, "r", encoding="utf-8") as handle:
                checkpoint = json.load(handle)
            if checkpoint.get("format") != CHECKPOINT_FORMAT:
                raise DurabilityError(
                    f"shard {self.shard_index} checkpoint has format "
                    f"{checkpoint.get('format')!r}, expected {CHECKPOINT_FORMAT!r}"
                )
            restore_into(checkpoint["engine"], engine)
            self._last_lsn = int(checkpoint["lsn"])
        self._wal_dir.mkdir(parents=True, exist_ok=True)
        # repair=True: a torn final record is the expected crash artifact.
        # Responses are recomputed so a retry of the last acked lsn gets
        # the same answer it would have gotten before the crash.
        for record in read_wal_records(self._wal_dir, after_lsn=self._last_lsn, repair=True):
            response = self._apply(engine, record)
            self._last_lsn = int(record["lsn"])
            self._last_response = response
            self._since_checkpoint += 1
        return engine

    # ------------------------------------------------------------------ #
    # the replicated state machine
    # ------------------------------------------------------------------ #
    def _apply(self, engine: Any, record: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one logged operation; returns its response payload.

        Live handling and recovery replay share this, so a replayed WAL
        drives the engine through exactly the transitions the original
        calls did.
        """
        op = record.get("op")
        if op == "ingest":
            batch = [_document_from_record(data) for data in record["docs"]]
            per_event = engine.process_batch_events(batch)
            return {"changes": event_changes_to_wire(per_event)}
        if op == "advance_time":
            changes = engine.advance_time(float(record["now"]))
            return {"changes": changes_to_wire(changes)}
        if op == "subscribe":
            engine.register_query(_query_from_record(record["query"]))
            return {}
        if op == "unsubscribe":
            engine.unregister_query(int(record["query_id"]))
            return {}
        raise DurabilityError(
            f"unknown WAL op {op!r} in shard {self.shard_index}"
        )

    def _apply_logged(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Deduplicate, apply, log, and maybe checkpoint one mutation."""
        lsn = int(record["lsn"])
        if lsn <= self._last_lsn:
            if lsn == self._last_lsn and self._last_response is not None:
                # The coordinator is retrying a call whose ack it never
                # saw (worker restarted between ack-write and ack-read).
                return self._last_response
            raise DurabilityError(
                f"stale lsn {lsn}: shard {self.shard_index} is already at "
                f"{self._last_lsn}"
            )
        response = self._apply(self.engine, record)
        self._wal.append(record)
        self._last_lsn = lsn
        self._last_response = response
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint()
        return response

    def checkpoint(self) -> int:
        """Write an atomic checkpoint and truncate the WAL; returns the lsn."""
        self._wal.sync()
        write_json_atomic(
            self._checkpoint_path,
            {
                "format": CHECKPOINT_FORMAT,
                "shard": self.shard_index,
                "lsn": self._last_lsn,
                "engine": snapshot_engine(self.engine),
            },
        )
        # Only after the checkpoint is durable may the segments covering
        # it be deleted.
        for stale in self._wal.rotate():
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - best-effort truncation
                pass
        self._since_checkpoint = 0
        if _obs.active:
            _obs.counter_child(
                "repro_worker_checkpoints_total",
                "per-shard checkpoints written",
                "shard",
                str(self.shard_index),
            ).inc()
        return self._last_lsn

    # ------------------------------------------------------------------ #
    # RPC dispatch
    # ------------------------------------------------------------------ #
    @property
    def last_lsn(self) -> int:
        return self._last_lsn

    def request_stop(self) -> None:
        """Ask the serve loop to drain and exit (signal-handler safe)."""
        self._stop = True

    def handle(self, method: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one RPC; returns its result payload."""
        if method in _MUTATING_METHODS:
            record = dict(params)
            record["op"] = method
            return self._apply_logged(record)
        if method == "ping":
            return {
                "pid": os.getpid(),
                "shard": self.shard_index,
                "lsn": self._last_lsn,
                "window": len(self.engine.window),
                "query_ids": sorted(self.engine.query_ids()),
            }
        if method == "result":
            entries = self.engine.current_result(int(params["query_id"]))
            return {"entries": entries_to_wire(entries)}
        if method == "results":
            return {
                "results": {
                    str(query_id): entries_to_wire(entries)
                    for query_id, entries in self.engine.current_results().items()
                }
            }
        if method == "counters":
            return {"counters": self.engine.counters.as_dict()}
        if method == "reset_counters":
            self.engine.counters.reset()
            return {}
        if method == "snapshot":
            return {"snapshot": snapshot_engine(self.engine)}
        if method == "checkpoint":
            return {"lsn": self.checkpoint()}
        if method == "metrics":
            return {"active": _obs.active, "samples": _registry_samples()}
        if method == "observe":
            if params.get("enable"):
                if not _obs.active:
                    _obs.enable()
            else:
                _obs.disable()
            return {"active": _obs.active}
        if method == "shutdown":
            self.request_stop()
            return {"lsn": self._last_lsn}
        raise NetworkError(
            f"unknown RPC method {method!r} on shard {self.shard_index}"
        )

    # ------------------------------------------------------------------ #
    # the serve loop
    # ------------------------------------------------------------------ #
    def serve(self, sock: socket.socket) -> None:
        """Answer requests until stopped, EOF, or a broken transport.

        The loop polls with a short ``select`` timeout so a SIGTERM set
        via :meth:`request_stop` is noticed between requests; the request
        being handled when the signal lands always finishes and is acked
        first (the drain the graceful-shutdown contract promises).
        """
        sock.setblocking(True)
        try:
            while not self._stop:
                readable, _, _ = select.select([sock], [], [], _POLL_SECONDS)
                if not readable:
                    continue
                request = recv_frame(sock)
                if request is None:
                    break  # coordinator went away: drain and exit cleanly
                response: Dict[str, Any] = {"id": request.get("id")}
                try:
                    result = self.handle(
                        str(request.get("method", "")), request.get("params") or {}
                    )
                except Exception as error:
                    # Typed errors cross the wire; they must not cross the
                    # process boundary (a failed op is not a failed worker).
                    response["ok"] = False
                    response["error"] = error_payload(error)
                else:
                    response["ok"] = True
                    response["result"] = result
                send_frame(sock, response)
        finally:
            self.close()

    def close(self) -> None:
        """Flush the WAL, write the final checkpoint, release the log."""
        if self._closed:
            return
        self._closed = True
        try:
            self.checkpoint()
        finally:
            self._wal.close()


# --------------------------------------------------------------------------- #
# process entry point
# --------------------------------------------------------------------------- #
def _connect(config: Dict[str, Any]) -> socket.socket:
    """Dial the coordinator's per-worker listener (it is already bound)."""
    deadline = time.monotonic() + float(config.get("connect_timeout_ms", 15_000.0)) / 1000.0
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            if config["transport"] == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(config["address"])
            else:
                host, port = config["address"]
                sock = socket.create_connection((host, int(port)))
            return sock
        except OSError as error:  # pragma: no cover - listener races are rare
            last_error = error
            time.sleep(0.01)
    raise RpcTransportError(
        f"shard {config.get('shard_index')} could not reach the coordinator: {last_error}"
    )


def worker_main(config: Dict[str, Any]) -> None:
    """Entry point of one worker process (the ``multiprocessing`` target).

    ``config`` is a plain picklable dictionary: ``transport``/``address``
    (where to dial the coordinator), ``spec`` (the shard's serialised
    :class:`~repro.service.spec.EngineSpec`), ``shard_index``,
    ``directory``, ``checkpoint_every``, ``fresh``, and ``observe``
    (enable the in-process metrics registry at birth).
    """
    # Imported here, not at module top: the spec module imports repro.net
    # for the options codec, and the worker must also be importable from a
    # spawn-fresh interpreter.
    from repro.service.spec import EngineSpec

    worker_box: List[Optional[ShardWorker]] = [None]

    def _request_stop(signum: int, frame: Any) -> None:  # pragma: no cover - signal path
        if worker_box[0] is not None:
            worker_box[0].request_stop()
        else:
            raise SystemExit(0)

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)

    if config.get("observe"):
        _obs.enable()

    sock = _connect(config)
    try:
        worker = ShardWorker(
            shard_index=int(config["shard_index"]),
            spec=EngineSpec.from_dict(config["spec"]),
            directory=config["directory"],
            checkpoint_every=int(config.get("checkpoint_every", 512)),
            fresh=bool(config.get("fresh", False)),
        )
        worker_box[0] = worker
        try:
            worker.serve(sock)
        except (RpcTransportError, OSError):  # pragma: no cover - torn socket
            # The coordinator vanished mid-frame; serve() already closed
            # the worker (final checkpoint included) via its finally.
            pass
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass
    sys.exit(0)
