"""The out-of-process cluster (engine kind ``"sharded-proc"``).

:class:`ProcessClusterEngine` is a :class:`~repro.cluster.engine.ShardedEngine`
over :class:`~repro.net.remote.RemoteShard` stubs, one per
:class:`~repro.net.worker.ShardWorker` process: the one coordinator
partitions, replicates, merges and migrates exactly as over in-process
shards, so results, change streams and counters are bit-identical to the
in-process cluster (and therefore to a single engine).

**What it buys, and what it does not.**  Crash isolation: a worker is its
own failure domain, and a SIGKILLed one is invisible on the result and
change tapes (its stub restarts and re-seeds it, see
:mod:`repro.net.remote`).  Not scale-out: every worker re-applies every
batch.  The workers overlap that replicated work, which beats the
in-process cluster doing it in sequence but only climbs back to about one
unsharded engine's throughput (docs/BENCHMARKING.md, "Reading the
concurrency column").

What is left here is what only processes need: the transport and its
socket directory, spawning, the GC backstop that reaps the workers,
restart counts, graceful :meth:`~ProcessClusterEngine.close`, a
scrape-time collector that re-exposes every worker's own metrics with a
``shard`` label, and refusing ids the shard channel's ``int64`` columns
cannot carry.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import socket
import tempfile
import weakref
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cluster.engine import ShardedEngine
from repro.cluster.placement import PlacementPolicy
from repro.documents.window import WindowSpec
from repro.core.base import ResultChange
from repro.documents.document import StreamedDocument
from repro.exceptions import ConfigurationError, QueryError, ReproError, WorkerCrashError
from repro.net.options import ProcOptions
from repro.net.protocol import RpcConnection
from repro.net.remote import RemoteShard, Worker, reap
from repro.net.worker import worker_main
from repro.observability import runtime as _obs
from repro.persistence import INT64, check_int64_ids
from repro.query.query import ContinuousQuery

__all__ = ["ProcessClusterEngine"]

#: how long the coordinator gives a worker to exit after a shutdown RPC
_SHUTDOWN_GRACE_SECONDS = 5.0


def _finalize_cluster(processes: List[Any], data_dir: Optional[str]) -> None:
    """GC/interpreter-exit backstop: no worker process may outlive us."""
    for process in processes:
        try:
            reap(process, grace=1.0)
        except Exception:  # pragma: no cover - last-resort cleanup
            pass
    if data_dir is not None:
        shutil.rmtree(data_dir, ignore_errors=True)


def _check_query(query: ContinuousQuery) -> None:
    """Refuse a query a seed's columns cannot carry: its id, ``k`` or a
    term id outside ``int64``."""
    if query.query_id not in INT64:
        raise QueryError(f"query id {query.query_id} is outside int64")
    if query.k not in INT64 or min(query.weights) not in INT64 or max(query.weights) not in INT64:
        raise QueryError(f"query {query.query_id}: its k or a term id is outside int64")


class ProcessClusterEngine(ShardedEngine):
    """A multi-process monitoring cluster behind the single-engine interface.

    Parameters
    ----------
    num_workers:
        Number of worker processes (one engine shard each).
    shard_spec:
        The :class:`~repro.service.spec.EngineSpec` of each worker's inner
        engine; defaults to ITA over ``window_spec``.  It must be
        serialisable -- it crosses the process boundary as a dictionary.
    window_spec:
        The shared window configuration, which the coordinator's mirror
        window is built from.
    placement:
        A placement policy instance or name, exactly as for
        :class:`~repro.cluster.engine.ShardedEngine`.
    track_changes:
        Forwarded to the default shard spec.
    options:
        Transport and supervision knobs (:class:`~repro.net.options.ProcOptions`).
    """

    name = "sharded-proc"

    def __init__(
        self,
        num_workers: int = 2,
        shard_spec: Optional[Any] = None,
        window_spec: Optional[WindowSpec] = None,
        placement: Union[str, PlacementPolicy] = "cost",
        track_changes: bool = True,
        options: Optional[ProcOptions] = None,
    ) -> None:
        if num_workers <= 0:
            raise ConfigurationError("a cluster needs at least one worker")
        if window_spec is None:
            window_spec = shard_spec.window if shard_spec is not None else WindowSpec()
        if shard_spec is None:
            from repro.service.spec import EngineSpec

            shard_spec = EngineSpec(kind="ita", window=window_spec, track_changes=track_changes)
        self.shard_spec = shard_spec
        self.options = options or ProcOptions()
        self.options.validate()
        self._closed = False
        self._collector_registry: Optional[Any] = None

        transport = self.options.transport
        if transport == "unix" and not hasattr(socket, "AF_UNIX"):
            transport = "tcp"  # pragma: no cover - non-POSIX fallback
        self._transport = transport
        if self.options.data_dir is not None:
            self._data_dir = Path(self.options.data_dir)
            self._data_dir.mkdir(parents=True, exist_ok=True)
            self._owns_data_dir = False
        else:
            self._data_dir = Path(tempfile.mkdtemp(prefix="repro-proc-"))
            self._owns_data_dir = True
        method = self.options.start_method
        self._mp = multiprocessing.get_context(None if method == "default" else method)
        #: mutated in place on every spawn so the GC backstop always sees
        #: the live process set
        self._live_processes: List[Any] = []
        self._finalizer = weakref.finalize(
            self,
            _finalize_cluster,
            self._live_processes,
            str(self._data_dir) if self._owns_data_dir else None,
        )
        self.shards: List[RemoteShard] = []
        try:
            for index in range(num_workers):
                self.shards.append(
                    RemoteShard(
                        index,
                        # late-bound: a restart spawns through whatever _spawn is now
                        lambda index: self._spawn(index),
                        self._current_state,
                        self.options,
                        self._ensure_worker_collector,
                    )
                )
            self._assemble(self.shards, window_spec, placement, track_changes)
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # admission: the shard channel carries int64 ids
    # ------------------------------------------------------------------ #
    def process_batch_events(self, documents: Iterable[StreamedDocument]) -> List[List[ResultChange]]:
        """Refuses a batch with an id or term id outside ``int64`` whole,
        before the mirror window takes any of it."""
        batch = list(documents)
        check_int64_ids(batch)
        return super().process_batch_events(batch)

    def _host(self, query: ContinuousQuery, shard: Optional[int], install: Callable[[Any], None]) -> int:
        _check_query(query)
        return super()._host(query, shard, install)

    def seed_shards(
        self,
        documents: Sequence[StreamedDocument],
        clock: Optional[float],
        queries: Sequence[Tuple[ContinuousQuery, Optional[int]]],
        states: Optional[Mapping[int, Dict[str, Any]]] = None,
    ) -> None:
        """Refuses a restore with an id outside ``int64`` before any shard is seeded."""
        check_int64_ids(documents)
        for query, _ in queries:
            _check_query(query)
        super().seed_shards(documents, clock, queries, states)

    # ------------------------------------------------------------------ #
    # spawning
    # ------------------------------------------------------------------ #
    def _spawn(self, shard: int) -> Worker:
        """Start one worker and accept its connection.

        The coordinator listens and the worker dials back: the listener is
        bound *before* the process starts, so there is no connect race,
        and it is closed right after the one accept.
        """
        if self._transport == "unix":
            listen_path = str(self._data_dir / f"shard-{shard}.sock")
            with suppress(FileNotFoundError):
                os.unlink(listen_path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(listen_path)
            address: Any = listen_path
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            address = list(listener.getsockname())
        listener.listen(1)
        config = {
            "transport": self._transport,
            "address": address,
            "spec": self.shard_spec.to_dict(),
            "shard_index": shard,
            "connect_timeout_ms": self.options.connect_timeout_ms,
            "observe": _obs.active,
        }
        process = self._mp.Process(
            target=worker_main, args=(config,), daemon=True, name=f"repro-shard-{shard}"
        )
        process.start()
        self._live_processes[:] = [p for p in self._live_processes if p.is_alive()]
        self._live_processes.append(process)
        listener.settimeout(self.options.connect_timeout_ms / 1000.0)
        try:
            sock, _ = listener.accept()
        except socket.timeout:
            reap(process)
            raise WorkerCrashError(
                f"shard {shard} worker did not dial back within "
                f"{self.options.connect_timeout_ms:.0f}ms"
            ) from None
        finally:
            listener.close()
            if self._transport == "unix":
                with suppress(OSError):
                    os.unlink(listen_path)
        connection = RpcConnection(
            sock, default_timeout_ms=self.options.request_timeout_ms, peer=f"shard-{shard}"
        )
        return Worker(process, connection)

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def _ensure_worker_collector(self) -> None:
        """Keep the worker-registry scrape collector on the live registry."""
        if not _obs.active:
            return
        registry = _obs.metrics
        if self._collector_registry is registry:
            return
        self._collector_registry = registry
        registry.register_collector(self._scrape_workers)

    def _scrape_workers(self) -> Dict[Any, float]:
        """Aggregate every worker's registry into shard-labelled samples."""
        samples: Dict[Any, float] = {("repro_proc_workers", ()): float(self.num_shards)}
        if self._closed:
            return samples
        scrape_timeout = min(2_000.0, self.options.request_timeout_ms)
        for shard in self.shards:
            try:
                if not shard.observing:
                    shard.ask("observe", {"enable": True}, scrape_timeout)
                    shard.observing = True
                response = shard.ask("metrics", None, scrape_timeout)
            except ReproError:
                continue  # a scrape must never take the ingest path down
            for name, labels, value in response["samples"]:
                key = (str(name), tuple(sorted(labels.items())) + (("shard", str(shard.index)),))
                samples[key] = samples.get(key, 0.0) + float(value)
        return samples

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def worker_pids(self) -> List[int]:
        """The live worker process ids, by shard (kill-point tests); each
        worker's owed acknowledgements are read first."""
        for shard in self.shards:
            shard.settle()
        return [shard.process.pid for shard in self.shards]

    def restart_counts(self) -> List[int]:
        """Per-shard restart counts since the cluster started; each
        worker's owed acknowledgements are read first."""
        for shard in self.shards:
            shard.settle()
        return [shard.restarts for shard in self.shards]

    @property
    def total_restarts(self) -> int:
        """Worker restarts across every shard since the cluster started."""
        return sum(self.restart_counts())

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Gracefully stop every worker and release the socket directory.

        Each worker gets a ``shutdown`` RPC (drain + exit 0) and a grace
        period; stragglers are reaped.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            with suppress(ReproError):
                shard.ask("shutdown", None, _SHUTDOWN_GRACE_SECONDS * 1000.0)
            shard.connection.close()
        for shard in self.shards:
            shard.process.join(_SHUTDOWN_GRACE_SECONDS)
            reap(shard.process)
        del self._live_processes[:]
        self._finalizer.detach()
        if self._owns_data_dir:
            shutil.rmtree(self._data_dir, ignore_errors=True)

    def __enter__(self) -> "ProcessClusterEngine":
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        self.close()
