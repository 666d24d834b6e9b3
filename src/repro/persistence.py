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
So does the query codec of a process cluster's seed: :func:`encode_queries`
packs a shard's queries, and each one's recorded state, as columns that
follow the window's in the seed's one attachment.  :func:`restore_into`
takes a snapshot whose ``"columns"`` hold both (:func:`decode_seed`)
exactly as one whose ``"documents"`` and ``"queries"`` are records, and a
malformed payload of either kind raises
:class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

import gc
import struct
from contextlib import contextmanager
from itertools import accumulate, chain, compress, islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Type

from repro.core.base import MonitoringEngine
from repro.core.descent import ProbeOrder
from repro.core.engine import ITAEngine
from repro.core.ita import state_values
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
    "encode_queries",
    "decode_seed",
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
    build = CompositionList._checked if CompositionList._well_formed(weights, weights.values()) else CompositionList
    document = Document(
        doc_id=int(record["doc_id"]),
        composition=build(weights),
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
    return _take_documents(_Columns(data, error), texts, metadata, last=True)


def _take_documents(
    columns: _Columns, texts: Optional[Sequence[Any]] = None, metadata: Optional[Sequence[Any]] = None,
    last: bool = False,
) -> List[StreamedDocument]:
    """The :func:`encode_documents` columns next on ``columns``."""
    (count,) = columns.take("I", 1)
    doc_ids, arrivals, lengths = columns.take("q", count), columns.take("d", count), columns.take("I", count)
    terms, weights = columns.take("q", sum(lengths)), columns.take("d", sum(lengths), last=last)
    texts = [None] * count if texts is None else texts
    metadata = [{} for _ in range(count)] if metadata is None else metadata
    if len(texts) != count or len(metadata) != count:
        raise columns.error(f"{count} documents with {len(texts)} texts and {len(metadata)} metadata")
    return [
        StreamedDocument(Document(doc_id, composition, text, meta), arrival)
        for doc_id, arrival, composition, text, meta in zip(
            doc_ids, arrivals, _compositions(terms, weights, lengths), texts, metadata
        )
    ]


def _compositions(
    terms: Sequence[int], weights: Sequence[float], lengths: Sequence[int]
) -> List[CompositionList]:
    """Each document's composition list off the flat term and weight columns.

    The batch is checked whole: when every term id is >= 0 and every
    weight finite and > 0, each list is built from its pairs as they
    stand.  Any other batch takes the checking constructor document by
    document, which raises -- or drops a zero weight -- exactly as for one
    document on its own.
    """
    build = CompositionList._checked if CompositionList._well_formed(terms, weights) else CompositionList
    pairs = iter(zip(terms, weights))
    return [build(dict(islice(pairs, length))) for length in lengths]


def encode_queries(queries: Sequence[ContinuousQuery], states: Mapping[int, Mapping[str, Any]]) -> bytes:
    """Queries as columns, each with its recorded state when ``states`` has one.

    Ids, ks, term counts, terms, weights and one has-a-state flag per
    query; then, per query with a state, in the same order: ``tau`` and
    the lengths of its thresholds, R ids and R scores; then those three,
    back to back.  A state is checked for its types only
    (:func:`~repro.core.ita.state_values`): its lengths travel as
    recorded, and whoever installs it checks its values.  A value no
    column holds raises :class:`~repro.exceptions.ConfigurationError`.
    """
    weights = [query.weights for query in queries]
    recorded = [
        state_values(query.query_id, states[query.query_id]) for query in queries if query.query_id in states
    ]
    taus, thresholds, ids, scores = zip(*recorded) if recorded else ((), (), (), ())
    try:
        return _pack(
            ("q", [query.query_id for query in queries]),
            ("q", [query.k for query in queries]),
            ("I", [len(terms) for terms in weights]),
            ("q", list(chain.from_iterable(weights))),
            ("d", list(chain.from_iterable(terms.values() for terms in weights))),
            ("B", [query.query_id in states for query in queries]),
            ("d", taus),
            ("I", [len(column) for column in thresholds]),
            ("I", [len(column) for column in ids]),
            ("I", [len(column) for column in scores]),
            ("d", list(chain.from_iterable(thresholds))),
            ("q", list(chain.from_iterable(ids))),
            ("d", list(chain.from_iterable(scores))),
        )
    except struct.error as error:
        raise ConfigurationError(f"a query or a recorded state does not fit its column ({error})") from None


def decode_seed(
    data: bytes,
) -> Tuple[List[StreamedDocument], List[ContinuousQuery], Dict[int, Dict[str, Any]]]:
    """Decode a seed's columns: :func:`encode_documents` output followed by
    :func:`encode_queries` output.  Returns the documents (no text) and
    the queries in column order, and each recorded state by query id; a
    payload that does not hold its columns raises
    :class:`~repro.exceptions.ConfigurationError`."""
    columns = _Columns(data, ConfigurationError)
    return (_take_documents(columns), *_take_queries(columns))


def _take_queries(columns: _Columns) -> Tuple[List[ContinuousQuery], Dict[int, Dict[str, Any]]]:
    """The :func:`encode_queries` columns ending ``columns``."""
    (count,) = columns.take("I", 1)
    query_ids, ks, lengths = columns.take("q", count), columns.take("q", count), columns.take("I", count)
    terms, weights = columns.take("q", sum(lengths)), columns.take("d", sum(lengths))
    flags = columns.take("B", count)
    if max(flags, default=0) > 1:
        raise columns.error("a query's state flag is neither 0 nor 1")
    stated = sum(flags)
    taus = columns.take("d", stated)
    counts = [columns.take("I", stated) for _ in range(3)]
    thresholds, ids = columns.take("d", sum(counts[0])), columns.take("q", sum(counts[1]))
    scores = columns.take("d", sum(counts[2]), last=True)
    pairs = iter(zip(terms, weights))
    queries = [
        ContinuousQuery(query_id, dict(islice(pairs, length)), k)
        for query_id, k, length in zip(query_ids, ks, lengths)
    ]
    states = {
        query_id: {"tau": tau, "thresholds": thresholds[a:b], "ids": ids[c:d], "scores": scores[e:f]}
        for query_id, tau, (a, b), (c, d), (e, f) in zip(
            compress(query_ids, flags), taus, *map(_spans, counts)
        )
    }
    return queries, states


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

    A snapshot carries its documents and queries as records
    (``"documents"``, ``"queries"``) or, as a shard's seed does, as one
    column payload (``"columns"``: :func:`decode_seed`).  A payload that
    does not decode -- a record without the fields read here, a clock that
    is not a number, columns that do not hold their counts -- raises
    :class:`~repro.exceptions.ConfigurationError` naming what is wrong; a
    value no document or query may have keeps its own error.  The whole
    load runs with the cyclic garbage collector paused: nothing it
    allocates is garbage, so a collection would only traverse it.
    """
    with _collector_paused():
        snapshot = _flat_snapshot(snapshot)
        columns = snapshot.get("columns")
        if columns is None:
            documents = _decoded(snapshot, "documents", _document_from_record)
            entries = _decoded(snapshot, "queries", _query_entry)
            queries = [(query, shard) for query, shard, _ in entries]
            states = {query.query_id: state for query, _, state in entries if state is not None}
        else:
            documents, hosted, states = decode_seed(columns)
            queries = [(query, None) for query in hosted]
        documents.sort(key=lambda document: document.arrival_time)
        clock = snapshot.get("clock")
        if clock is not None:
            try:
                clock = float(clock)
            except (TypeError, ValueError):
                raise ConfigurationError(f"the snapshot's clock {clock!r} is not a number") from None

        seed_shards = getattr(engine, "seed_shards", None)
        if seed_shards is not None:
            seed_shards(documents, clock, queries, states)
        else:
            replay(engine, documents, clock, [query for query, _ in queries], states)
    return engine


def _query_entry(record: Dict[str, Any]) -> Tuple[ContinuousQuery, Optional[int], Optional[Dict[str, Any]]]:
    """One snapshot query record: the query, its recorded shard and state, if any."""
    shard = record.get("shard")
    return _query_from_record(record), None if shard is None else int(shard), record.get("state")


def _decoded(snapshot: EngineSnapshot, key: str, decode: Callable[[Dict[str, Any]], Any]) -> List[Any]:
    """Each of the snapshot's ``key`` records through ``decode``, in order;
    a missing list, or a record without the fields ``decode`` reads, raises
    :class:`~repro.exceptions.ConfigurationError` naming it (a record whose
    fields hold values no document or query may have keeps its own error)."""
    records = snapshot.get(key)
    if not isinstance(records, (list, tuple)):
        raise ConfigurationError(f"the snapshot's {key!r} is {type(records).__name__}, not a list of records")
    decoded = []
    try:
        for index, record in enumerate(records):
            decoded.append(decode(record))
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(f"the snapshot's {key} record {index} is malformed ({error!r})") from None
    return decoded


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
