"""Snapshot and restore of a monitoring engine's state.

The paper's server is main-memory only; a production deployment of such a
server still needs to checkpoint its state so it can recover after a
restart without replaying the whole stream.  This module serialises the
*logical* state of a monitoring engine -- the valid documents (with arrival
times and composition lists) and the installed queries -- to a plain,
JSON-compatible dictionary, and rebuilds an equivalent engine from it.

An engine that runs ITA also records each query's state beside it, under
the query record's optional ``"state"``: the influence threshold ``tau``,
the local thresholds in the query's term order, and the result container
R, unverified entries included, in rank order as parallel ``ids`` /
``scores``.  A restore installs that state as it stands instead of
re-running the Section III-A descent per query, so the rebuilt engine
resumes exactly where the snapshotted one stood, ties included.  The field
is additive: a snapshot without it (written before it existed, or by a
baseline engine) restores by re-registering its queries over the restored
window, and an engine without ITA state (a baseline) ignores it, so the
same snapshot still restores into any engine kind.

The format is intentionally pure-Python/JSON so snapshots can be written
with :func:`json.dump` without any custom encoder.

The document codecs live here too: :func:`document_record` (snapshots, the
serving tier) and :func:`encode_documents`, fixed-width columns (``int64``
ids, IEEE-754 floats) that WAL ingest records and the shard channel carry.
"""

from __future__ import annotations

import gc
import struct
from contextlib import contextmanager
from itertools import accumulate, chain
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Type

from repro.core.base import MonitoringEngine
from repro.core.descent import ProbeOrder
from repro.core.engine import ITAEngine
from repro.documents.document import CompositionList, Document, StreamedDocument
from repro.documents.window import WindowSpec
from repro.exceptions import ConfigurationError, DocumentError, ReproError
from repro.query.query import ContinuousQuery

__all__ = [
    "snapshot_engine",
    "restore_engine",
    "restore_into",
    "replay",
    "EngineSnapshot",
    "document_record",
    "query_record",
    "encode_documents",
    "decode_documents",
    "check_int64_ids",
    "INT64",
]

SNAPSHOT_VERSION = 1

#: documents per ``process_batch_events`` call while a restore replays the
#: window (a process cluster's worker replays its seed in the same chunks)
REPLAY_CHUNK = 256


def _engine_config(engine: MonitoringEngine) -> Dict[str, Any]:
    """The engine construction knobs worth preserving across a round-trip.

    Only knobs every restore target understands-or-ignores are recorded:
    the probe order, roll-up switch and storage backend of ITA, and the
    change-tracking flag shared by all engines.  A cluster records its
    shard engines' knobs, once -- shards are homogeneous -- read from its
    shard spec when it has one (its shards may be remote).  Absent keys
    simply fall back to the defaults, which keeps old snapshots restorable.
    """
    shards = getattr(engine, "shards", None)
    source = getattr(engine, "shard_spec", shards[0] if shards else engine)
    config: Dict[str, Any] = {}
    probe_order = getattr(source, "probe_order", None)
    if probe_order is not None:
        config["probe_order"] = ProbeOrder(probe_order).value
    for attr in ("enable_rollup", "track_changes"):
        value = getattr(source, attr, None)
        if isinstance(value, bool):
            config[attr] = value
    storage = getattr(source, "storage", None)
    if isinstance(storage, str):
        config["storage"] = storage
    return config


def document_record(streamed: StreamedDocument) -> Dict[str, Any]:
    """Encode one streamed document as a JSON-compatible record.

    The inverse of :func:`_document_from_record`; snapshots, the serving
    tier and the WAL's legacy ``"docs"`` ingest records share this codec.
    """
    document = streamed.document
    return {
        "doc_id": document.doc_id,
        "arrival_time": streamed.arrival_time,
        "weights": {str(t): w for t, w in document.composition.items()},
        "text": document.text,
        "metadata": dict(document.metadata),
    }


def query_record(query: ContinuousQuery) -> Dict[str, Any]:
    """Encode one continuous query as a JSON-compatible record.

    The inverse of :func:`_query_from_record`; shared with the
    write-ahead log exactly like :func:`document_record`.
    """
    return {
        "query_id": query.query_id,
        "k": query.k,
        "weights": {str(t): w for t, w in query.weights.items()},
        "text": query.text,
    }


def _document_from_record(record: Dict[str, Any]) -> StreamedDocument:
    """Decode one snapshot document record back into a streamed document."""
    weights = {int(term): float(weight) for term, weight in record["weights"].items()}
    document = Document(
        doc_id=int(record["doc_id"]),
        composition=CompositionList(weights),
        text=record.get("text"),
        metadata=record.get("metadata", {}),
    )
    return StreamedDocument(document=document, arrival_time=float(record["arrival_time"]))


#: the ids the document columns carry
INT64 = range(-(2**63), 2**63)


def check_int64_ids(batch: Iterable[StreamedDocument]) -> None:
    """Refuse a batch whose document ids or term ids the columns cannot hold."""
    if any(d.doc_id not in INT64 or max(d.composition, default=0) not in INT64 for d in batch):
        raise DocumentError("a document id or term id is outside int64")


def _pack(*columns: Tuple[str, Sequence[Any]]) -> bytes:
    """The first column's length as a ``uint32``, then every column, little-endian."""
    layout = "".join(f"{len(values)}{code}" for code, values in columns)
    values = chain.from_iterable(values for _, values in columns)
    return struct.pack(f"<I{layout}", len(columns[0][1]), *values)


class _Columns:
    """Little-endian columns read off a payload in order, bounds-checked;
    a payload that does not hold them raises ``error``."""

    def __init__(self, data: bytes, error: Type[ReproError]) -> None:
        self.data, self.offset, self.error = data, 0, error

    def take(self, code: str, count: int, last: bool = False) -> Tuple[Any, ...]:
        """The next ``count`` values of struct ``code``; the ``last`` column must end the data."""
        end = self.offset + count * struct.calcsize(code)
        if end > len(self.data) or (last and end != len(self.data)):
            raise self.error(f"a {len(self.data)}-byte payload does not hold its columns")
        values, self.offset = struct.unpack_from(f"<{count}{code}", self.data, self.offset), end
        return values


def _spans(lengths: Iterable[int]) -> Iterator[Tuple[int, int]]:
    """``(start, end)`` of each of back-to-back runs of ``lengths``."""
    ends = list(accumulate(lengths))
    return zip([0] + ends, ends)


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


def decode_documents(
    data: bytes, texts: Optional[Sequence[Any]] = None, metadata: Optional[Sequence[Any]] = None,
    error: Type[ReproError] = DocumentError,
) -> List[StreamedDocument]:
    """Decode :func:`encode_documents` output, with each document's text and
    metadata when given; a payload that does not hold its columns (or
    whose documents do not match the texts and metadata) raises ``error``."""
    columns = _Columns(data, error)
    (count,) = columns.take("I", 1)
    doc_ids, arrivals, lengths = columns.take("q", count), columns.take("d", count), columns.take("I", count)
    terms, weights = columns.take("q", sum(lengths)), columns.take("d", sum(lengths), last=True)
    texts = [None] * count if texts is None else texts
    metadata = [{} for _ in range(count)] if metadata is None else metadata
    if len(texts) != count or len(metadata) != count:
        raise error(f"{count} documents with {len(texts)} texts and {len(metadata)} metadata")
    return [
        StreamedDocument(Document(doc_id, CompositionList(dict(zip(terms[a:b], weights[a:b]))), text, meta), arrival)
        for doc_id, arrival, (a, b), text, meta in zip(doc_ids, arrivals, _spans(lengths), texts, metadata)
    ]


def _query_from_record(record: Dict[str, Any]) -> ContinuousQuery:
    """Decode one snapshot query record back into a continuous query."""
    weights = {int(term): float(weight) for term, weight in record["weights"].items()}
    return ContinuousQuery(
        query_id=int(record["query_id"]),
        weights=weights,
        k=int(record["k"]),
        text=record.get("text"),
    )


def _valid_documents(engine: MonitoringEngine) -> List[StreamedDocument]:
    """Return the engine's valid documents, oldest first.

    ITA exposes them through its document store; every other engine keeps
    them in the sliding window itself.  Both are ordered oldest-first.
    """
    index = getattr(engine, "index", None)
    if index is not None:
        return list(index.documents)
    return list(engine.window)


def snapshot_engine(engine: MonitoringEngine) -> Dict[str, Any]:
    """Serialise ``engine`` to a JSON-compatible dictionary.

    The one format for every engine kind: the window configuration, the
    engine construction knobs (probe order, roll-up, change tracking), the
    valid documents *once* (id, arrival time, composition list, text,
    metadata), and the installed queries in registry order (id, k, term
    weights, text).  An engine that places queries (it reports an
    ``assignment()``) also records its shard count and each query's shard,
    and one that keeps per-query search state (ITA, and a cluster of ITA
    shards: ``query_states()``) each query's ``"state"``.
    """
    registry = getattr(engine, "registry", None)
    if registry is None:
        raise ReproError("engine does not expose a query registry to snapshot")

    states = engine.query_states()
    snapshot = {
        "version": SNAPSHOT_VERSION,
        "engine": engine.name,
        # The window encoding is owned by WindowSpec; snapshots and engine
        # specs deliberately share the one codec.
        "window": WindowSpec.of(engine.window).to_dict(),
        # The window's observed clock (latest arrival or advance_time).
        # Without it a restored time-based window would accept an arrival
        # older than a clock advance the original had already seen.
        "clock": engine.window.clock,
        "config": _engine_config(engine),
        "documents": [document_record(streamed) for streamed in _valid_documents(engine)],
        "queries": [query_record(query) for query in registry],
    }
    assignment = getattr(engine, "assignment", None)
    if assignment is not None:
        placed = assignment()
        snapshot["num_shards"] = engine.num_shards
        for record in snapshot["queries"]:
            record["shard"] = placed[record["query_id"]]
    for record in snapshot["queries"]:
        state = states.get(record["query_id"])
        if state is not None:
            record["state"] = state
    return snapshot


EngineSnapshot = Dict[str, Any]


def restore_engine(snapshot: EngineSnapshot) -> ITAEngine:
    """Rebuild an ITA engine from a bare :func:`snapshot_engine` result.

    The convenience for a snapshot that travels without a spec: an
    :class:`~repro.core.engine.ITAEngine` with the recorded configuration
    (probe order, roll-up, change tracking, storage) over the recorded
    window, filled by :func:`restore_into` -- which is also how a cluster
    snapshot collapses into one engine.  To restore into any other engine,
    build it and call :func:`restore_into`.
    """
    snapshot = _flat_snapshot(snapshot)
    config = dict(snapshot.get("config", {}))
    if "probe_order" in config:
        config["probe_order"] = ProbeOrder(config["probe_order"])
    engine = ITAEngine(WindowSpec.from_dict(snapshot["window"]).build(), **config)
    return restore_into(snapshot, engine)


def _flat_snapshot(snapshot: EngineSnapshot) -> EngineSnapshot:
    """Check the version; fold a legacy per-shard cluster document flat.

    Durability directories written before the one format hold
    ``"kind": "cluster"`` checkpoints: one full engine snapshot per shard.
    The window is replicated, so shard 0's documents are the cluster's;
    each shard's queries are tagged with its index.
    """
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise ConfigurationError(f"unsupported snapshot version {version!r}")
    if snapshot.get("kind") != "cluster":
        return snapshot
    shards = snapshot["shards"]
    return {
        **shards[0],
        "window": snapshot["window"],
        "num_shards": snapshot["num_shards"],
        "queries": [
            {**record, "shard": index}
            for index, shard in enumerate(shards)
            for record in shard["queries"]
        ],
    }


def restore_into(snapshot: EngineSnapshot, engine: MonitoringEngine) -> MonitoringEngine:
    """Replay a snapshot's documents, clock and queries into ``engine``.

    The one loader: the caller builds the engine (``spec.build()``, or by
    hand) with its window configured like the snapshotted one, and this
    replays the logical state (:func:`replay`).  The documents go through
    ``process_batch_events`` oldest-first *before* the queries are
    installed, so each query's state is that of the full restored window:
    the recorded ``"state"`` when there is one (a baseline ignores it), a
    fresh initial search otherwise.  An engine that places queries (a
    :class:`~repro.cluster.engine.ShardedEngine`) is handed the decoded
    state whole instead (``seed_shards``): it fills its coordinator, gets
    each query back on its recorded shard, and loads every shard through
    this same loader in one call -- a worker's is a ``restore`` RPC.

    A snapshot carries its documents as records (``"documents"``) or, as a
    shard's seed does, as :func:`encode_documents` columns (``"columns"``).
    The whole load runs with the cyclic garbage collector paused: nothing
    it allocates is garbage, so a collection would only traverse it.
    """
    with _collector_paused():
        snapshot = _flat_snapshot(snapshot)
        columns = snapshot.get("columns")
        if columns is None:
            records = sorted(snapshot["documents"], key=lambda r: r["arrival_time"])
            documents = [_document_from_record(record) for record in records]
        else:
            documents = sorted(decode_documents(columns), key=lambda d: d.arrival_time)
        clock = snapshot.get("clock")
        clock = None if clock is None else float(clock)
        query_records = snapshot["queries"]
        states = {int(record["query_id"]): record["state"] for record in query_records if "state" in record}

        seed_shards = getattr(engine, "seed_shards", None)
        if seed_shards is not None:
            seed_shards(documents, clock, [
                (_query_from_record(record), None if record.get("shard") is None else int(record["shard"]))
                for record in query_records
            ], states)
        else:
            replay(engine, documents, clock, [_query_from_record(record) for record in query_records], states)
    return engine


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; the caller's setting comes back
    on the way out, on an exception too."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def replay(
    engine: MonitoringEngine,
    documents: Sequence[StreamedDocument],
    clock: Optional[float],
    queries: Iterable[ContinuousQuery],
    states: Optional[Mapping[int, Mapping[str, Any]]] = None,
) -> None:
    """:func:`restore_into`'s replay: ``documents`` (oldest first) in
    :data:`REPLAY_CHUNK` batches, ``advance_time(clock)``, then ``queries``
    in order -- ``install_query`` with its recorded state from ``states``
    (by query id) when it has one, ``register_query`` otherwise.  A
    cluster runs it once on each in-process shard.  The cyclic collector
    is paused throughout."""
    with _collector_paused():
        for start in range(0, len(documents), REPLAY_CHUNK):
            engine.process_batch_events(documents[start : start + REPLAY_CHUNK])
        # Re-advance the snapshotted clock (a no-op for expirations: every
        # snapshotted document was valid at that clock) so replayed streams
        # cannot regress behind a time advance the original had observed.
        # Older snapshots carry no clock; replay then only guards arrivals.
        if clock is not None:
            engine.advance_time(clock)
        for query in queries:
            state = states.get(query.query_id) if states else None
            if state is None:
                engine.register_query(query)
            else:
                engine.install_query(query, state)
