"""The out-of-process cluster coordinator (engine kind ``"sharded-proc"``).

:class:`ProcessClusterEngine` is the :class:`~repro.cluster.engine.ShardedEngine`
contract re-implemented over worker *processes*: it spawns one
:class:`~repro.net.worker.ShardWorker` per shard, replicates the document
stream to all of them over the framed RPC of :mod:`repro.net.protocol`,
partitions the queries with the same placement policies, and merges the
responses with the same :class:`~repro.cluster.merger.ResultMerger` -- so
its results, change streams and counters are bit-identical to the
in-process cluster (and therefore to a single engine).

**What it buys, and what it does not.**  Crash isolation: a worker is its
own failure domain, and a SIGKILLed one is invisible on the result and
change tapes (see *Supervision*).  Not scale-out: every shard scores its
queries against the *full* window, so every batch is replicated to, and
re-applied by, every worker.  On a multi-core host the workers overlap
that replicated work, which beats the in-process sharded cluster doing it
in sequence but only climbs back to about one unsharded engine's
throughput (docs/BENCHMARKING.md, "Reading the concurrency column").

**Dispatch.**  A batch is fanned out *pipelined*: the coordinator writes
the request frame to every worker before reading any response, so the
workers compute concurrently while the coordinator is only ever blocked
on the slowest of them.

**Supervision.**  A worker holds its engine and nothing else; the
coordinator is the recovery state.  A broken worker connection
(:class:`~repro.exceptions.RpcTransportError`) triggers a restart: the
dead process is reaped, the coordinator backs off exponentially, spawns
a replacement, seeds it over the ``restore`` RPC with exactly the state
it had acknowledged before the failed call -- its mirror window (minus
the call's batch, plus what the call expired, at the pre-call clock) and
the registry's queries placed on that shard -- and re-sends the call.
The replacement never saw the call, so a retried mutation is applied
exactly once by construction.  The seed is built only on failure, and a
replacement that dies while being seeded is one more restart attempt.
Past ``max_restarts`` the call fails with
:class:`~repro.exceptions.WorkerCrashError`; past its deadline, with
:class:`~repro.exceptions.RpcTimeoutError`.

**Metrics.**  With observability enabled the coordinator records worker
restarts (``repro_worker_restarts_total{shard=}``) and in-flight fan-out
depth (``repro_proc_inflight_rpcs``), and registers a scrape-time
collector that pulls every worker's own registry over RPC and re-exposes
its samples with a ``shard`` label.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import socket
import tempfile
import time
import weakref
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.cluster.merger import ResultMerger
from repro.cluster.placement import PlacementPolicy, make_placement
from repro.core.base import MonitoringEngine, ResultChange, TopKResult
from repro.documents.document import StreamedDocument
from repro.documents.window import WindowSpec
from repro.exceptions import (
    ConfigurationError,
    ReproError,
    RpcTimeoutError,
    RpcTransportError,
    UnknownQueryError,
    WindowError,
    WorkerCrashError,
)
from repro.net.codec import (
    changes_from_wire,
    entries_from_wire,
    event_changes_from_wire,
)
from repro.net.options import ProcOptions
from repro.net.protocol import RpcConnection, encode_params
from repro.net.worker import worker_main
from repro.observability import runtime as _obs
from repro.observability.opcounters import OperationCounters
from repro.observability.timing import aggregate_counters
from repro.persistence import SNAPSHOT_VERSION, document_record, query_record
from repro.query.query import ContinuousQuery
from repro.query.registry import QueryRegistry

__all__ = ["ProcessClusterEngine"]

#: how long the coordinator gives a worker to exit after a shutdown RPC
_SHUTDOWN_GRACE_SECONDS = 5.0

#: builds, for a shard index, the snapshot a replacement worker is seeded with
Seed = Callable[[int], Dict[str, Any]]


class _Worker:
    """One supervised worker: its process, connection and bookkeeping."""

    __slots__ = ("process", "connection", "observing", "restarts")

    def __init__(
        self,
        process: multiprocessing.process.BaseProcess,
        connection: RpcConnection,
        observing: bool,
    ) -> None:
        self.process = process
        self.connection = connection
        #: whether the worker's own metrics registry has been enabled
        self.observing = observing
        self.restarts = 0


def _reap(process: multiprocessing.process.BaseProcess, grace: float = 2.0) -> None:
    """Make sure ``process`` is gone (terminate, then kill)."""
    if process.is_alive():
        process.terminate()
        process.join(grace)
    if process.is_alive():  # pragma: no cover - terminate is normally enough
        process.kill()
        process.join(grace)
    else:
        process.join(0)


def _finalize_cluster(processes: List[Any], data_dir: Optional[str]) -> None:
    """GC/interpreter-exit backstop: no worker process may outlive us."""
    for process in processes:
        try:
            _reap(process, grace=1.0)
        except Exception:  # pragma: no cover - last-resort cleanup
            pass
    if data_dir is not None:
        shutil.rmtree(data_dir, ignore_errors=True)


class _RemoteCounters:
    """The cluster's live counter view, summed over the workers via RPC.

    Duck-types :class:`~repro.observability.timing.AggregatedCounters`
    (attribute reads, ``as_dict``, ``copy``, ``reset``) -- but ``reset``
    must RPC the workers: resetting a fetched copy would be a silent
    no-op.
    """

    _FIELD_NAMES = frozenset(OperationCounters().as_dict())

    def __init__(self, cluster: "ProcessClusterEngine") -> None:
        self._cluster = cluster

    def _blocks(self) -> List[OperationCounters]:
        responses = self._cluster._fanout("counters")
        blocks = []
        for response in responses:
            block = OperationCounters()
            for name, value in response["counters"].items():
                setattr(block, name, int(value))
            blocks.append(block)
        return blocks

    def __getattr__(self, name: str) -> int:
        if name in _RemoteCounters._FIELD_NAMES:
            return sum(getattr(block, name) for block in self._blocks())
        raise AttributeError(name)

    def as_dict(self) -> Dict[str, int]:
        return aggregate_counters(self._blocks()).as_dict()

    def copy(self) -> OperationCounters:
        """A plain, detached snapshot of the cluster-wide sums."""
        return aggregate_counters(self._blocks())

    def reset(self) -> None:
        self._cluster._fanout("reset_counters")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.as_dict()})"


class ProcessClusterEngine(MonitoringEngine):
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
        The shared window configuration; also builds the coordinator's
        *mirror* window, which pre-validates arrivals (so a bad document
        is rejected before any worker sees it), holds the documents a
        restarted worker is seeded with, and serves generic
        ``engine.window`` introspection.
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

            shard_spec = EngineSpec(
                kind="ita", window=window_spec, track_changes=track_changes
            )
        super().__init__(window_spec.build())
        self.num_shards = int(num_workers)
        self.window_spec = window_spec
        self.shard_spec = shard_spec
        self.track_changes = track_changes
        self.options = options or ProcOptions()
        self.options.validate()
        self.merger = ResultMerger()
        if isinstance(placement, PlacementPolicy):
            if placement.num_shards != self.num_shards:
                raise ConfigurationError(
                    f"placement policy is sized for {placement.num_shards} shards, "
                    f"cluster has {self.num_shards}"
                )
            self.placement = placement
        else:
            self.placement = make_placement(placement, self.num_shards)
        self.registry = QueryRegistry()
        self._assignment: Dict[int, int] = {}
        self.counters = _RemoteCounters(self)
        self._closed = False
        self.total_restarts = 0
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
        self._mp = (
            multiprocessing.get_context()
            if method == "default"
            else multiprocessing.get_context(method)
        )
        #: mutated in place on restarts so the GC backstop always sees the
        #: live process set
        self._live_processes: List[Any] = []
        self._finalizer = weakref.finalize(
            self,
            _finalize_cluster,
            self._live_processes,
            str(self._data_dir) if self._owns_data_dir else None,
        )
        self._workers: List[_Worker] = []
        try:
            for shard in range(self.num_shards):
                self._workers.append(self._spawn(shard))
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # spawning and supervision
    # ------------------------------------------------------------------ #
    def _spawn(self, shard: int) -> _Worker:
        """Start one worker and accept its connection.

        The coordinator listens and the worker dials back: the listener is
        bound *before* the process starts, so there is no connect race,
        and it is closed right after the one accept.
        """
        if self._transport == "unix":
            listen_path = str(self._data_dir / f"shard-{shard}.sock")
            try:
                os.unlink(listen_path)
            except FileNotFoundError:
                pass
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
        self._live_processes.append(process)
        listener.settimeout(self.options.connect_timeout_ms / 1000.0)
        try:
            sock, _ = listener.accept()
        except socket.timeout:
            _reap(process)
            raise WorkerCrashError(
                f"shard {shard} worker did not dial back within "
                f"{self.options.connect_timeout_ms:.0f}ms"
            ) from None
        finally:
            listener.close()
            if self._transport == "unix":
                try:
                    os.unlink(listen_path)
                except OSError:
                    pass
        connection = RpcConnection(
            sock,
            default_timeout_ms=self.options.request_timeout_ms,
            peer=f"shard-{shard}",
        )
        return _Worker(process, connection, observing=_obs.active)

    def _restart(self, shard: int, attempt: int, deadline: float, seed: Seed) -> None:
        """Replace a dead worker, enforcing the budget and the deadline.

        Reap, back off, spawn, then restore ``seed(shard)`` into the
        replacement.  A replacement that dies while being seeded raises
        :class:`~repro.exceptions.RpcTransportError` to the caller, which
        counts it as one more attempt.
        """
        worker = self._workers[shard]
        worker.connection.close()
        _reap(worker.process)
        try:
            self._live_processes.remove(worker.process)
        except ValueError:  # pragma: no cover - defensive
            pass
        if attempt > self.options.max_restarts:
            raise WorkerCrashError(
                f"shard {shard} worker died and exceeded its "
                f"{self.options.max_restarts}-restart budget"
            )
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RpcTimeoutError(
                f"the call's deadline elapsed while restarting shard {shard}"
            )
        backoff = (self.options.backoff_ms / 1000.0) * (2 ** (attempt - 1))
        time.sleep(min(backoff, remaining))
        replacement = self._spawn(shard)
        replacement.restarts = worker.restarts + 1
        self._workers[shard] = replacement
        self.total_restarts += 1
        if _obs.active:
            _obs.counter_child(
                "repro_worker_restarts_total",
                "worker processes restarted by the coordinator",
                "shard",
                str(shard),
            ).inc()
        connection = replacement.connection
        connection.read_response(
            connection.send_request("restore", {"snapshot": seed(shard)}, deadline),
            deadline,
        )

    def _seed(
        self, shard: int, clock: Optional[float], documents: Iterable[StreamedDocument]
    ) -> Dict[str, Any]:
        """A :func:`~repro.persistence.snapshot_engine`-format image of one shard.

        ``documents`` and ``clock`` describe the window; the queries are
        the registry's queries assigned to ``shard``, in registry order.
        A query is assigned only once its worker acknowledged it and
        unassigned only once its removal was acknowledged, so during a
        subscribe or unsubscribe this is the shard as it was before.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "window": self.window_spec.to_dict(),
            "clock": clock,
            "documents": [document_record(document) for document in documents],
            "queries": [
                query_record(query)
                for query in self.registry
                if self._assignment.get(query.query_id) == shard
            ],
        }

    def _current_state(self, shard: int) -> Dict[str, Any]:
        """The seed of a call that changes no window: the mirror as it is."""
        return self._seed(shard, self.window.clock, self.window)

    # ------------------------------------------------------------------ #
    # RPC plumbing
    # ------------------------------------------------------------------ #
    def _deadline(self) -> float:
        return time.monotonic() + self.options.request_timeout_ms / 1000.0

    def _call(
        self,
        shard: int,
        method: str,
        params: Optional[Dict[str, Any]] = None,
        deadline: Optional[float] = None,
        seed: Optional[Seed] = None,
    ) -> Any:
        """One supervised call under a single deadline.

        On a transport failure the worker is replaced and seeded with
        ``seed`` (the state before the call; by default the coordinator's
        current state) and the call is re-sent -- never on the broken
        connection.  The replacement never saw the call, so a mutation is
        applied exactly once.
        """
        self._ensure_worker_collector()
        if deadline is None:
            deadline = self._deadline()
        observed = _obs.active
        started = time.perf_counter() if observed else 0.0
        attempt = 0
        while True:
            try:
                if attempt:
                    self._restart(shard, attempt, deadline, seed or self._current_state)
                connection = self._workers[shard].connection
                request_id = connection.send_request(method, params or {}, deadline)
                result = connection.read_response(request_id, deadline)
            except RpcTransportError:
                attempt += 1
                continue
            if observed:
                _obs.counter_child(
                    "repro_rpc_client_calls_total", "RPC calls issued", "method", method
                ).inc()
                _obs.histogram_child(
                    "repro_rpc_client_latency_ms", "RPC round-trip latency", "method", method
                ).observe((time.perf_counter() - started) * 1000.0)
            return result

    def _fanout(
        self,
        method: str,
        params: Optional[Dict[str, Any]] = None,
        seed: Optional[Seed] = None,
    ) -> List[Any]:
        """Pipelined fan-out: write to every worker, then read in order.

        Shards whose connection breaks anywhere in the exchange fall back
        to the supervised :meth:`_call` path, which replaces the worker,
        seeds it with ``seed`` and re-sends; remote (typed) errors
        are drained from every shard before the first one is re-raised, so
        the surviving connections stay request/response aligned.

        The params are serialised **once** (:func:`encode_params`) and
        spliced into each worker's envelope: for a replicated ingest
        batch, JSON encoding no longer scales with the shard count.
        """
        self._ensure_worker_collector()
        deadline = self._deadline()
        observed = _obs.active
        started = time.perf_counter() if observed else 0.0
        params_body = encode_params(params)
        pending: Dict[int, int] = {}
        failed: List[int] = []
        for shard in range(self.num_shards):
            try:
                pending[shard] = self._workers[shard].connection.send_request_encoded(
                    method, params_body, deadline
                )
            except RpcTransportError:
                failed.append(shard)
        observed = _obs.active
        if observed:
            _obs.metrics.gauge(
                "repro_proc_inflight_rpcs", "worker RPCs awaiting a response"
            ).set(float(len(pending)))
        results: Dict[int, Any] = {}
        errors: Dict[int, ReproError] = {}
        for shard in range(self.num_shards):
            request_id = pending.get(shard)
            if request_id is None:
                continue
            try:
                results[shard] = self._workers[shard].connection.read_response(
                    request_id, deadline
                )
            except RpcTransportError:
                failed.append(shard)
            except ReproError as error:
                errors[shard] = error
            if observed:
                _obs.metrics.gauge(
                    "repro_proc_inflight_rpcs", "worker RPCs awaiting a response"
                ).set(float(self.num_shards - shard - 1))
        if errors:
            raise errors[min(errors)]
        for shard in failed:
            # The worker may have applied the call: closing its connection
            # makes _call's first send fail, so it replaces the worker first.
            self._workers[shard].connection.close()
            results[shard] = self._call(shard, method, params, deadline, seed)
        if observed:
            _obs.counter_child(
                "repro_rpc_client_calls_total", "RPC calls issued", "method", method
            ).inc(self.num_shards)
            _obs.histogram_child(
                "repro_proc_dispatch_ms", "pipelined fan-out latency", "method", method
            ).observe((time.perf_counter() - started) * 1000.0)
        return [results[shard] for shard in range(self.num_shards)]

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
        for shard in range(self.num_shards):
            worker = self._workers[shard]
            try:
                if not worker.observing:
                    worker.connection.call(
                        "observe", {"enable": True}, timeout_ms=scrape_timeout
                    )
                    worker.observing = True
                response = worker.connection.call("metrics", timeout_ms=scrape_timeout)
            except ReproError:
                continue  # a scrape must never take the ingest path down
            for name, labels, value in response["samples"]:
                key = (
                    str(name),
                    tuple(sorted(labels.items())) + (("shard", str(shard)),),
                )
                samples[key] = samples.get(key, 0.0) + float(value)
        return samples

    # ------------------------------------------------------------------ #
    # query management (mirrors ShardedEngine)
    # ------------------------------------------------------------------ #
    def register_query(self, query: ContinuousQuery, shard: Optional[int] = None) -> int:
        """Install ``query`` on a worker and return the shard index."""
        if shard is not None and not 0 <= shard < self.num_shards:
            raise ConfigurationError(f"shard {shard} outside 0..{self.num_shards - 1}")
        self.registry.register(query)
        try:
            if shard is None:
                shard = self.placement.place(query)
            else:
                self.placement.record(query, shard)
        except Exception:
            self.registry.unregister(query.query_id)
            raise
        try:
            self._call(shard, "subscribe", {"query": query_record(query)})
        except Exception:
            self.placement.forget(query, shard)
            self.registry.unregister(query.query_id)
            raise
        self._assignment[query.query_id] = shard
        return shard

    def unregister_query(self, query_id: int) -> None:
        """Terminate ``query_id`` on whichever worker hosts it.

        The query stays registered and assigned until the worker
        acknowledges, so a worker restarted during the call is seeded
        with it and the re-sent unsubscribe finds it.
        """
        query = self.registry.get(query_id)
        shard = self._assignment[query_id]
        try:
            self._call(shard, "unsubscribe", {"query_id": query_id})
        finally:
            self.registry.unregister(query_id)
            del self._assignment[query_id]
            self.placement.forget(query, shard)

    def query_ids(self) -> List[int]:
        return self.registry.query_ids()

    def shard_of(self, query_id: int) -> int:
        """The index of the worker hosting ``query_id``."""
        try:
            return self._assignment[query_id]
        except KeyError:
            raise UnknownQueryError(f"query id {query_id} is not registered") from None

    def assignment(self) -> Dict[int, int]:
        """A copy of the ``{query_id: shard}`` placement map."""
        return dict(self._assignment)

    def shard_query_counts(self) -> List[int]:
        """Number of hosted queries per worker."""
        counts = [0] * self.num_shards
        for shard in self._assignment.values():
            counts[shard] += 1
        return counts

    # ------------------------------------------------------------------ #
    # stream processing
    # ------------------------------------------------------------------ #
    def process(self, document: StreamedDocument) -> List[ResultChange]:
        """Fan one arrival out to every worker; merged result changes."""
        return self.process_batch_events([document])[0]

    def process_batch_events(
        self, documents: Iterable[StreamedDocument]
    ) -> List[List[ResultChange]]:
        """Replicate a batch to every worker; event-major merged changes.

        The mirror window takes the batch *first*: it applies exactly the
        validation the workers would (stale arrivals), so a rejected
        document never reaches a worker.  Like a single engine, a batch
        rejected part-way keeps its accepted prefix: the workers get the
        prefix, then the error is re-raised.
        """
        batch = list(documents)
        clock = self.window.clock
        expired: List[StreamedDocument] = []
        for accepted, document in enumerate(batch):
            try:
                expired.extend(self.window.insert(document))
            except WindowError:
                self._replicate(batch[:accepted], clock, expired)
                raise
        return self._replicate(batch, clock, expired)

    def _replicate(
        self,
        batch: Sequence[StreamedDocument],
        clock: Optional[float],
        expired: List[StreamedDocument],
    ) -> List[List[ResultChange]]:
        """Fan a batch the mirror already took out to every worker.

        A restarted worker is seeded with the window before the batch:
        the mirror minus the batch plus what the batch expired (a batch
        longer than the window expires some of its own documents), at the
        pre-batch ``clock``.
        """
        if not batch:
            return []

        def seed(shard: int) -> Dict[str, Any]:
            fresh = {id(document) for document in batch}
            before = chain(expired, self.window)
            return self._seed(shard, clock, (d for d in before if id(d) not in fresh))

        records = [document_record(document) for document in batch]
        responses = self._fanout("ingest", {"docs": records}, seed)
        per_shard = [event_changes_from_wire(r["changes"]) for r in responses]
        return [
            self.merger.merge_changes(
                shard_events[event_index] for shard_events in per_shard
            )
            for event_index in range(len(batch))
        ]

    def advance_time(self, now: float) -> List[ResultChange]:
        """Advance every worker's clock consistently (time-based windows)."""
        clock = self.window.clock
        expired = self.window.advance_time(now)
        responses = self._fanout(
            "advance_time",
            {"now": float(now)},
            lambda shard: self._seed(shard, clock, chain(expired, self.window)),
        )
        return self.merger.merge_changes(
            changes_from_wire(r["changes"]) for r in responses
        )

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def current_result(self, query_id: int) -> TopKResult:
        response = self._call(
            self.shard_of(query_id), "result", {"query_id": query_id}
        )
        return entries_from_wire(response["entries"])

    def current_results(self) -> Dict[int, TopKResult]:
        """The merged results of every installed query, across all workers."""
        responses = self._fanout("results")
        return self.merger.merge_results(
            {int(query_id): entries_from_wire(entries) for query_id, entries in r["results"].items()}
            for r in responses
        )

    def top_documents(self, limit: int) -> TopKResult:
        """Cluster-wide best documents across all queries (dashboard view)."""
        return self.merger.top_documents(self.current_results(), limit)

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def worker_pids(self) -> List[int]:
        """The live worker process ids, by shard (kill-point tests)."""
        return [worker.process.pid for worker in self._workers]

    def restart_counts(self) -> List[int]:
        """Per-shard restart counts since the cluster started."""
        return [worker.restarts for worker in self._workers]

    def check_invariants(self) -> None:
        """Validate placement bookkeeping and every worker (tests only)."""
        assert sorted(self._assignment) == sorted(self.registry.query_ids())
        hosted: List[int] = []
        for shard, ping in enumerate(self._fanout("ping")):
            assert ping["window"] == len(self.window), (
                f"shard {shard} window diverged from the coordinator mirror"
            )
            hosted.extend(ping["query_ids"])
            for query_id in ping["query_ids"]:
                assert self._assignment.get(query_id) == shard, (
                    f"query {query_id} hosted on shard {shard} but assigned to "
                    f"{self._assignment.get(query_id)}"
                )
        assert len(hosted) == len(set(hosted)), "a query is hosted by several workers"

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
        for worker in self._workers:
            try:
                worker.connection.call(
                    "shutdown", timeout_ms=_SHUTDOWN_GRACE_SECONDS * 1000.0
                )
            except ReproError:
                pass
            worker.connection.close()
        for worker in self._workers:
            worker.process.join(_SHUTDOWN_GRACE_SECONDS)
            _reap(worker.process)
        del self._live_processes[:]
        self._finalizer.detach()
        if self._owns_data_dir:
            shutil.rmtree(self._data_dir, ignore_errors=True)

    def __enter__(self) -> "ProcessClusterEngine":
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"{type(self).__name__}(num_workers={self.num_shards}, "
            f"transport={self._transport!r}, {state})"
        )
