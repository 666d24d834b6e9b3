"""The machine-readable performance harness.

Every earlier benchmark in this repository printed human-oriented tables;
nothing produced an artifact a later PR could diff against.  This module
is the paper's evaluation grid written as a grid:

* :func:`default_suite` is a literal table of cell rows ``(workload,
  point, engine, mode, storage)`` -- the paper's Figure 3(a) and 3(b)
  settings, the query-count ablation and the sharded-cluster workload,
  across the engine kinds and the modes listed on :class:`BenchRecord`.
  Two workloads that drive a text-level service instead of a prepared
  engine add their rows beside it: the ``service-overhead`` façade check
  and the duplicate-heavy ``query-scale`` subscription workload
  (bytes/query and docs/sec at 10k and 100k standing subscriptions,
  dedup on and off; the 1M cell sits behind ``--queries-max``).
* Every synchronous cell is timed by the one loop
  :func:`repro.workloads.runner.measure_chunks`, handed the ``apply``
  callable of its mode (only the async lane has a loop of its own), and
  becomes a record through one constructor, :func:`_record`.
* :data:`SUMMARY` is the table of published ratios -- numerator cell,
  denominator cell, field, dashboard note -- walked by one loop.

The emitted JSON document (``BENCH_results.json`` by convention) is one
record per cell plus the summary.  Run it via the experiment CLI::

    python -m repro.workloads.cli bench-all --out BENCH_results.json

or through ``benchmarks/harness.py``.  ``docs/BENCHMARKING.md`` documents
the JSON schema, how to compare two runs and how to add a cell or a ratio
(one row each); ``schema`` is bumped whenever a field changes meaning.
"""

from __future__ import annotations

import datetime
import itertools
import json
import os
import platform
import random
import subprocess
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.observability import runtime as obs_runtime
from repro.observability.timing import PercentileSummary
from repro.query.query import ContinuousQuery
from repro.workloads.experiments import (
    SCALES,
    ExperimentDefinition,
    SweepPoint,
    ablation_num_queries,
    cluster_scaling,
    figure_3a,
    figure_3b,
)
from repro.workloads.generators import GeneratedWorkload, WorkloadConfig, build_workload
from repro.workloads.runner import (
    best_of,
    measure_async_ingest,
    measure_chunks,
    prepare_engine,
)

__all__ = [
    "SCHEMA",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_QUERIES_MAX",
    "QUERY_SCALE_SUBSCRIPTIONS",
    "QUERY_SCALE_FANOUT",
    "QUERY_SCALE_VARIANTS",
    "SERVICE_OVERHEAD_MODES",
    "SUMMARY",
    "HISTORY_FILENAME",
    "BenchRecord",
    "BenchCell",
    "default_suite",
    "run_cell",
    "run_bench_suite",
    "history_entry",
    "append_history",
    "read_history",
]

#: bump when a field of the emitted JSON changes meaning
SCHEMA = "repro-bench/7"

#: default chunk size of the batched measurement mode
DEFAULT_BATCH_SIZE = 64

#: largest subscription count the query-scale cells run at by default; the
#: 1M cell only runs when ``--queries-max`` raises this (0 disables the
#: query-scale workload entirely)
DEFAULT_QUERIES_MAX = 100_000

#: the subscription sweep of the query-scale workload
QUERY_SCALE_SUBSCRIPTIONS = (10_000, 100_000, 1_000_000)

#: subscriptions per distinct query text in the duplicate-heavy workload
QUERY_SCALE_FANOUT = 10

#: the query-scale rows measured at each subscription count: ``(mode,
#: storage, largest count the row runs at)``.  The dedup-on cell is also
#: measured on the columnar backend (the deployment shape the scaling
#: layer targets); the dedup-off cell stays bisect-only -- its purpose is
#: the dedup ratio, not a backend comparison -- and stops at 100k, where
#: an undeduped registry alone is already gigabytes at the next count.
QUERY_SCALE_VARIANTS = (
    ("dedup-off", "bisect", 100_000),
    ("dedup-on", "bisect", None),
    ("dedup-on", "columnar", None),
)

#: the two rows of the service-overhead workload
SERVICE_OVERHEAD_MODES = ("direct", "facade")

CellKey = Tuple[str, str, str, str]  # (workload, engine, mode, storage)
Measurement = Tuple[float, List[float], int, int]  # (total_ms, samples, events, scores)


@dataclass(frozen=True)
class BenchRecord:
    """One measurement: a (workload, point, engine, mode, storage) cell."""

    workload: str
    point: str
    engine: str
    #: "sequential" (one timed ``process()`` call per arrival), "batched"
    #: (timed ``process_batch()`` chunks), "instrumented" (the batched
    #: hot path with :mod:`repro.observability` enabled -- the telemetry
    #: overhead cell), "async" (chunks through the one-worker ingestion
    #: lane of :mod:`repro.service.lane`), "wal" (batched chunks
    #: with write-ahead logging -- the logged-ingest overhead cell),
    #: "wal-recovery" (checkpoint restore + WAL replay; ``events`` are
    #: the replayed documents) or "proc" (batched chunks through the
    #: out-of-process cluster of :mod:`repro.net` -- worker processes
    #: behind framed RPC, at the shard count of the in-process cell it is
    #: compared with); "direct"/"facade" on the service-overhead workload
    #: and "dedup-off"/"dedup-on" on the query-scale workload
    mode: str
    #: measured arrival events
    events: int
    #: throughput over the whole measured stream
    docs_per_sec: float
    #: exact mean per-document service time
    mean_ms: float
    #: p50/p99 of the per-event service time (sequential mode) or of the
    #: per-chunk mean per-document time (batched mode)
    p50_ms: float
    p99_ms: float
    #: similarity scores computed per event (cost proxy)
    scores_per_event: float
    #: chunk size of the batched mode (None for sequential)
    batch_size: Optional[int] = None
    #: storage backend of the scoring state ("bisect", the original
    #: object-per-posting containers, or "columnar", the array-backed
    #: columns); the columnar/bisect pair at the same (workload, mode)
    #: forms ``summary["figure3a_columnar_over_batched"]``
    storage: str = "bisect"
    #: worker-process count of the proc mode (None otherwise): the shard
    #: count of the cluster-scaling point, one worker per shard
    concurrency: Optional[int] = None
    #: standing subscriptions installed for a query-scale cell (None for
    #: every stream-throughput cell)
    subscriptions: Optional[int] = None
    #: deep-size bytes of standing-query state per subscription (engine +
    #: query-scale layer, minus a zero-subscription baseline); the
    #: dedup-on/off pair at the same subscription count forms
    #: ``summary["queries_dedup_bytes_ratio"]``
    bytes_per_query: Optional[float] = None

    @property
    def key(self) -> CellKey:
        return (self.workload, self.engine, self.mode, self.storage)

    @property
    def total_ms(self) -> float:
        """Wall-clock of the whole measured stream (the recovery time of a
        ``wal-recovery`` cell)."""
        return self.mean_ms * self.events


def _record(
    workload: str,
    point: str,
    engine: str,
    mode: str,
    measurement: Measurement,
    **columns: Any,
) -> BenchRecord:
    """The one place a measurement becomes a :class:`BenchRecord`."""
    total_ms, samples, events, scores = measurement
    mean_ms = total_ms / events if events else 0.0
    percentiles = PercentileSummary.from_samples(samples)
    return BenchRecord(
        workload=workload,
        point=point,
        engine=engine,
        mode=mode,
        events=events,
        docs_per_sec=(1000.0 / mean_ms) if mean_ms > 0 else 0.0,
        mean_ms=mean_ms,
        p50_ms=percentiles.p50,
        p99_ms=percentiles.p99,
        scores_per_event=(scores / events) if events else 0.0,
        **columns,
    )


# --------------------------------------------------------------------------- #
# the stream workloads: one row per cell
# --------------------------------------------------------------------------- #
class BenchCell(NamedTuple):
    """One row of the suite: what to build and how to drive it."""

    workload: str
    point: SweepPoint
    #: engine kind, as recorded ("ita", "naive-kmax", "sharded-ita", ...)
    engine: str
    mode: str
    storage: str = "bisect"

    @property
    def key(self) -> CellKey:
        """The key of the record this row produces."""
        return (self.workload, self.engine, self.mode, self.storage)


def _point_by_label(definition: ExperimentDefinition, label_prefix: str) -> SweepPoint:
    for point in definition.points:
        if point.label.startswith(label_prefix):
            return point
    return definition.points[-1]


def default_suite(scale: str = "small") -> List[BenchCell]:
    """The fixed benchmark suite of the repository, one row per cell.

    Four stream workloads (:func:`run_bench_suite` appends the
    service-overhead and query-scale rows), one representative sweep
    point each:

    * ``figure3a`` -- the paper's query-length setting at n=10, the
      headline workload every PR's speedup claims refer to.  Its bisect
      ``batched`` cell is the denominator of the ``*_over_batched``
      ratios: ``wal`` repeats it with write-ahead logging (``wal-recovery``
      then replays that log onto the pre-stream checkpoint), the
      ``columnar`` row on the array-backed storage backend -- except
      ``instrumented``, the columnar row with observability on, over it;
    * ``figure3b`` -- the window-size setting at N=100 (a small window
      stresses the per-event constant overheads);
    * ``ablation-queries`` -- double the scale's default query count
      (stresses the per-query maintenance);
    * ``cluster-scaling`` -- the sharded cluster at 4 shards: in process
      (``async`` feeds the batched chunks through the one-worker
      ingestion lane), and out of process (``proc``: the same shard
      count, placement and calibration behind framed RPC).
    """
    figure3a = _point_by_label(figure_3a(scale), "n=10")
    figure3b = _point_by_label(figure_3b(scale), "N=100")
    queries = _point_by_label(
        ablation_num_queries(scale), "Q=" + str(2 * int(SCALES[scale]["num_queries"]))
    )
    cluster = _point_by_label(cluster_scaling(scale), "shards=4")
    return [
        BenchCell("figure3a", figure3a, "ita", "sequential"),
        BenchCell("figure3a", figure3a, "ita", "batched"),
        BenchCell("figure3a", figure3a, "ita", "wal"),
        BenchCell("figure3a", figure3a, "ita", "wal-recovery"),
        BenchCell("figure3a", figure3a, "ita", "batched", "columnar"),
        BenchCell("figure3a", figure3a, "ita", "instrumented", "columnar"),
        BenchCell("figure3a", figure3a, "naive", "sequential"),
        BenchCell("figure3a", figure3a, "naive-kmax", "sequential"),
        BenchCell("figure3b", figure3b, "ita", "sequential"),
        BenchCell("figure3b", figure3b, "ita", "batched"),
        BenchCell("figure3b", figure3b, "naive", "sequential"),
        BenchCell("figure3b", figure3b, "naive-kmax", "sequential"),
        BenchCell("ablation-queries", queries, "ita", "sequential"),
        BenchCell("ablation-queries", queries, "ita", "batched"),
        BenchCell("ablation-queries", queries, "naive", "sequential"),
        BenchCell("ablation-queries", queries, "naive-kmax", "sequential"),
        BenchCell("cluster-scaling", cluster, "sharded-ita", "sequential"),
        BenchCell("cluster-scaling", cluster, "sharded-ita", "batched"),
        BenchCell("cluster-scaling", cluster, "sharded-ita", "async"),
        BenchCell("cluster-scaling", cluster, "sharded-proc", "proc"),
    ]


def _measure_durable(mode: str, engine, measured: Sequence, batch_size: int) -> Measurement:
    """The durability cells: logged batched ingest, then crash recovery.

    ``"wal"`` is the batched measurement with every chunk first appended
    to a real segmented write-ahead log (documents encoded with the
    persistence codec, fsync policy ``"interval"`` -- the durable
    service's ingest lane without the façade), so ``wal.mean_ms /
    batched.mean_ms`` is the logged-ingest overhead.  ``"wal-recovery"``
    writes the same log and then plays the crash: restore the pre-stream
    checkpoint and replay the log through the batched path, timing the
    whole recovery; its events are the replayed documents.
    """
    # Imported lazily: repro.durability pulls in the persistence stack.
    from repro.durability.wal import WriteAheadLog, read_wal_records
    from repro.persistence import (
        _document_from_record,
        document_record,
        restore_engine,
        snapshot_engine,
    )

    checkpoint = snapshot_engine(engine) if mode == "wal-recovery" else None
    lsn = itertools.count(1)
    with tempfile.TemporaryDirectory(prefix="repro-wal-bench-") as directory:
        wal = WriteAheadLog(directory, fsync="interval", fsync_interval=16)

        def logged(chunk: Sequence) -> None:
            docs = [document_record(streamed) for streamed in chunk]
            wal.append({"lsn": next(lsn), "op": "ingest", "docs": docs})
            engine.process_batch(chunk)

        total_ms, samples = measure_chunks(logged, measured, batch_size)
        wal.close()
        if mode == "wal":
            return total_ms, samples, len(measured), engine.counters.scores_computed

        began = time.perf_counter()
        recovered = restore_engine(checkpoint)
        replayed = 0
        for record in read_wal_records(directory):
            documents = [_document_from_record(entry) for entry in record["docs"]]
            recovered.process_batch(documents)
            replayed += len(documents)
        recovery_ms = (time.perf_counter() - began) * 1000.0
    return recovery_ms, [recovery_ms / replayed], replayed, 0


def _measure_cell(cell: BenchCell, workload: GeneratedWorkload, batch_size: int) -> Measurement:
    """One measurement of ``cell`` on a freshly prepared engine."""
    # A bare harness name means the paper-faithful "bisect" engine (see
    # spec_from_name), whatever the service default; another backend is
    # built through its storage-qualified name ("ita-columnar") and
    # recorded under the base kind, so backend pairs line up at the same
    # (engine, mode).
    name = cell.engine if cell.storage == "bisect" else f"{cell.engine}-{cell.storage}"
    measured = workload.measured
    # "instrumented" is the telemetry-overhead cell: the identical batched
    # measurement with metrics + tracing on.
    with obs_runtime.observed() if cell.mode == "instrumented" else nullcontext():
        engine = prepare_engine(name, cell.point, workload)
        try:
            if cell.mode in ("wal", "wal-recovery"):
                return _measure_durable(cell.mode, engine, measured, batch_size)
            if cell.mode == "sequential":
                timing = measure_chunks(lambda chunk: engine.process(chunk[0]), measured, 1)
            elif cell.mode == "async":
                timing = measure_async_ingest(engine, measured, batch_size)
            else:  # batched, instrumented, proc: the plain batched hot path
                timing = measure_chunks(engine.process_batch, measured, batch_size)
            return timing + (len(measured), engine.counters.scores_computed)
        finally:
            # Only the out-of-process cluster holds anything to release
            # (its worker processes and their state directories).
            close = getattr(engine, "close", None)
            if close is not None:
                close()


def run_cell(
    cell: BenchCell,
    workload: GeneratedWorkload,
    batch_size: int = DEFAULT_BATCH_SIZE,
    repeats: int = 1,
) -> BenchRecord:
    """Measure one row on ``workload`` (the built ``cell.point.config``),
    keeping the best of ``repeats`` fresh engines."""
    measurement = best_of(repeats, lambda: _measure_cell(cell, workload, batch_size))
    return _record(
        cell.workload,
        cell.point.label,
        cell.engine,
        cell.mode,
        measurement,
        batch_size=None if cell.mode == "sequential" else batch_size,
        storage=cell.storage,
        concurrency=cell.point.engine_options["num_shards"] if cell.mode == "proc" else None,
    )


# --------------------------------------------------------------------------- #
# the query-scale workload: duplicate-heavy standing subscriptions
# --------------------------------------------------------------------------- #
def _query_scale_records(
    batch_size: int, say: Callable[[str], None], queries_max: int
) -> List[BenchRecord]:
    """The standing-query scaling cells: bytes/query and docs/sec by count.

    A duplicate-heavy subscription workload (:data:`QUERY_SCALE_FANOUT`
    subscribers per distinct term/weight set, the redundancy real alerting
    workloads show) is installed at each count of
    :data:`QUERY_SCALE_SUBSCRIPTIONS` up to ``queries_max``, once per row
    of :data:`QUERY_SCALE_VARIANTS`: through the query-scale layer
    (``dedup-on``) and directly on the engine (``dedup-off``).  Each cell
    reports

    * ``bytes_per_query`` -- the deep-size bytes of standing-query state
      per subscription: engine plus query-scale layer under a shared
      memo, minus a zero-subscription baseline run over the identical
      document stream (so window/document state cancels out), and
    * ``docs_per_sec`` over a short measured stream, with
      ``scores_per_event`` showing the O(distinct) scoring cost directly.

    Cells are measured once (the byte measurement is deterministic and
    dominates the runtime; best-of-N would re-subscribe 100k queries per
    repeat for no extra signal).
    """
    # Imported lazily: repro.service imports this package's runner.
    from repro.queryscale import QueryScaleOptions, deep_size_of
    from repro.service import EngineSpec, MonitoringService, WindowSpec

    counts = [count for count in QUERY_SCALE_SUBSCRIPTIONS if count <= queries_max]
    if not counts:
        return []

    vocabulary = [f"qterm{index}" for index in range(2_000)]
    rng = random.Random(29)
    distinct_texts = [
        " ".join(rng.sample(vocabulary, 6))
        for _ in range(max(counts) // QUERY_SCALE_FANOUT)
    ]
    doc_rng = random.Random(31)
    prefill = [" ".join(doc_rng.sample(vocabulary, 8)) for _ in range(64)]
    measured = [" ".join(doc_rng.sample(vocabulary, 8)) for _ in range(128)]

    def measure(subscriptions: int, dedup: bool, storage: str) -> Tuple[Measurement, int]:
        spec = EngineSpec(
            kind="ita",
            window=WindowSpec.count(256),
            storage=storage,
            queryscale=QueryScaleOptions(dedup=True) if dedup else None,
        )
        service = MonitoringService(spec)
        try:
            distinct = subscriptions // QUERY_SCALE_FANOUT
            for index in range(subscriptions):
                service.subscribe(distinct_texts[index % distinct], k=5)
            service.ingest(prefill)
            scores_before = service.engine.counters.scores_computed
            timing = measure_chunks(service.ingest, measured, batch_size)
            scores = service.engine.counters.scores_computed - scores_before
            memo: set = set()
            total_bytes = deep_size_of(service.engine, memo)
            if service.queryscale is not None:
                total_bytes += service.queryscale.bytes_resident(memo)
        finally:
            service.close()
        return timing + (len(measured), scores), total_bytes

    # The zero-subscription baselines over the identical stream: what the
    # window/document side costs regardless of any standing query.  One
    # baseline per storage backend, so each cell subtracts the substrate
    # it actually ran on.
    baseline_bytes = {
        storage: measure(0, dedup=False, storage=storage)[1]
        for storage in ("bisect", "columnar")
    }

    records: List[BenchRecord] = []
    for subscriptions in counts:
        for mode, storage, largest in QUERY_SCALE_VARIANTS:
            if largest is not None and subscriptions > largest:
                continue
            say(f"[bench]   query-scale S={subscriptions} ({mode}, {storage})")
            measurement, total_bytes = measure(
                subscriptions, dedup=(mode == "dedup-on"), storage=storage
            )
            per_query = max(total_bytes - baseline_bytes[storage], 0) / subscriptions
            records.append(
                _record(
                    "query-scale",
                    f"S={subscriptions}",
                    "ita",
                    mode,
                    measurement,
                    batch_size=batch_size,
                    storage=storage,
                    subscriptions=subscriptions,
                    bytes_per_query=round(per_query, 2),
                )
            )
    return records


# --------------------------------------------------------------------------- #
# the service-overhead workload
# --------------------------------------------------------------------------- #
def _service_overhead_records(scale: str, batch_size: int) -> List[BenchRecord]:
    """Façade tax: MonitoringService.ingest versus the direct engine.

    Both rows of :data:`SERVICE_OVERHEAD_MODES` run the identical workload
    (change tracking on, as the façade requires); the ``facade`` record
    rides ``service.ingest`` -- one ``engine.process_batch_events`` call
    per chunk plus the dispatch loop -- and the ``direct`` record calls
    ``engine.process_batch`` itself.
    """
    # Imported lazily: repro.service imports this package's runner.
    from repro.service import EngineSpec, MonitoringService, WindowSpec

    preset = SCALES[scale]
    config = WorkloadConfig(
        num_queries=max(10, int(preset["num_queries"]) // 5),
        query_length=6,
        k=5,
        window_size=min(500, int(preset["max_window"])),
        measured_events=int(preset["measured_events"]),
        seed=11,
    )
    workload = build_workload(config)
    # Both rows are recorded as "bisect" cells, so both build that engine.
    spec = EngineSpec(
        kind="ita", window=WindowSpec.count(config.window_size), storage="bisect"
    )

    def direct() -> Callable[[Sequence], object]:
        engine = spec.build()
        engine.process_batch(workload.prefill)
        for query in workload.queries:
            engine.register_query(query)
        return engine.process_batch

    def facade() -> Callable[[Sequence], object]:
        service = MonitoringService(spec)
        service.ingest(workload.prefill)
        # Low-level registration: the cell prices ingest's own shell
        # (stamping, the one process_batch_events call, the per-event
        # dispatch loop), not subscriber delivery, so the queries go on
        # the engine without façade subscriptions.
        for query in workload.queries:
            service.engine.register_query(
                ContinuousQuery(query_id=query.query_id, weights=query.weights, k=query.k)
            )
        return service.ingest

    prepare = {"direct": direct, "facade": facade}
    measured = workload.measured
    return [
        _record(
            "service-overhead",
            f"Q={config.num_queries}",
            "ita",
            mode,
            # scores are not the subject of the façade-tax cells
            measure_chunks(prepare[mode](), measured, batch_size) + (len(measured), 0),
            batch_size=batch_size,
        )
        for mode in SERVICE_OVERHEAD_MODES
    ]


# --------------------------------------------------------------------------- #
# the summary: one table, one loop
# --------------------------------------------------------------------------- #
_BATCHED = ("figure3a", "ita", "batched", "bisect")
_RECOVERY = ("figure3a", "ita", "wal-recovery", "bisect")
_CLUSTER = ("cluster-scaling", "sharded-ita", "batched", "bisect")
_DEDUP_ON = ("query-scale", "ita", "dedup-on", "bisect")
_DEDUP_OFF = ("query-scale", "ita", "dedup-off", "bisect")

#: Every published number, one row each: ``(summary name, numerator cell
#: key, denominator cell key, field, note)``.  The value is the
#: :class:`BenchRecord` attribute ``field`` of the numerator cell over that
#: of the denominator cell -- or, with no denominator, of the numerator
#: cell as it stands.  ``note`` is the meaning shown beside the number in
#: the dashboard's headline table.  Query-scale keys resolve at the
#: largest subscription count measured with dedup both on and off.
SUMMARY: Tuple[Tuple[str, CellKey, Optional[CellKey], str, str], ...] = (
    ("figure3a_columnar_over_batched",
     ("figure3a", "ita", "batched", "columnar"), _BATCHED, "docs_per_sec",
     "columnar kernel over batched bisect (bound: >= 2 in CI)"),
    ("service_facade_over_direct",
     ("service-overhead", "ita", "facade", "bisect"),
     ("service-overhead", "ita", "direct", "bisect"), "mean_ms",
     "service facade tax over the raw engine"),
    ("figure3a_ita_instrumented_over_batched",
     ("figure3a", "ita", "instrumented", "columnar"),
     ("figure3a", "ita", "batched", "columnar"), "mean_ms",
     "telemetry overhead on the columnar kernel (bound: <= 1.05)"),
    ("figure3a_ita_wal_over_batched",
     ("figure3a", "ita", "wal", "bisect"), _BATCHED, "mean_ms",
     "logged-ingest overhead (bound: < 1.25)"),
    ("figure3a_wal_recovery_ms", _RECOVERY, None, "total_ms",
     "crash-recovery wall time (ms)"),
    ("figure3a_wal_recovery_docs_per_sec", _RECOVERY, None, "docs_per_sec",
     "crash-recovery replay throughput"),
    ("figure3a_ita_batched_over_naive_kmax",
     ("figure3a", "naive-kmax", "sequential", "bisect"), _BATCHED, "mean_ms",
     "ITA vs the paper's Naive-kmax competitor"),
    ("cluster_async_over_batched",
     ("cluster-scaling", "sharded-ita", "async", "bisect"), _CLUSTER, "docs_per_sec",
     "one-worker async lane vs synchronous batched"),
    ("cluster_proc_over_batched",
     ("cluster-scaling", "sharded-proc", "proc", "bisect"), _CLUSTER, "docs_per_sec",
     "same shards out of process over in process: RPC + WAL tax vs cross-core overlap "
     "(values before PR 14, e.g. 0.47, were 1 worker over 4 shards: not comparable)"),
    ("queries_dedup_bytes_ratio", _DEDUP_OFF, _DEDUP_ON, "bytes_per_query",
     "bytes/query, dedup off over dedup on (bound: >= 3)"),
    ("queries_dedup_bytes_ratio_at", _DEDUP_ON, None, "subscriptions",
     "subscription count the dedup ratios were measured at"),
    ("queries_dedup_throughput_ratio", _DEDUP_ON, _DEDUP_OFF, "docs_per_sec",
     "ingest docs/sec, dedup on over dedup off"),
)


def _summarise(records: Sequence[BenchRecord]) -> Dict[str, Any]:
    """Walk :data:`SUMMARY`; a row whose cells were not measured is skipped."""
    # Stream cells are unique per key; the query-scale cells repeat per
    # subscription count and resolve at the largest one both dedup rows
    # ran at, so the dedup ratios compare like with like.
    dedup_on, dedup_off = (
        {record.subscriptions for record in records if record.key == key}
        for key in (_DEDUP_ON, _DEDUP_OFF)
    )
    at = max(dedup_on & dedup_off, default=None)
    cells = {record.key: record for record in records if record.subscriptions in (None, at)}
    summary: Dict[str, Any] = {}
    for name, numerator, denominator, field, _note in SUMMARY:
        if numerator not in cells or (denominator is not None and denominator not in cells):
            continue
        value = getattr(cells[numerator], field)
        if denominator is not None:
            divisor = getattr(cells[denominator], field)
            if not divisor:
                continue
            value /= divisor
        summary[name] = round(value, 4)
    return summary


# --------------------------------------------------------------------------- #
# the whole suite
# --------------------------------------------------------------------------- #
def run_bench_suite(
    scale: str = "small",
    batch_size: int = DEFAULT_BATCH_SIZE,
    repeats: int = 3,
    progress: Optional[Callable[[str], None]] = None,
    queries_max: int = DEFAULT_QUERIES_MAX,
) -> Dict[str, Any]:
    """Run the full suite and return the JSON-compatible result document.

    Every row of :func:`default_suite` is measured best-of-``repeats``,
    the service-overhead and query-scale rows once, and the ``summary``
    block is :data:`SUMMARY` evaluated over the records.  Dump the
    returned dictionary with ``json.dump`` to produce
    ``BENCH_results.json``.

    ``queries_max`` caps the query-scale subscription sweep (default
    100k; raise to 1_000_000 for the 1M cell, set 0 to skip the workload).
    """
    say = progress if progress is not None else (lambda message: None)
    records: List[BenchRecord] = []
    for name, cells in itertools.groupby(default_suite(scale), key=lambda cell: cell.workload):
        rows = list(cells)
        say(f"[bench] workload {name} ({rows[0].point.label})")
        workload = build_workload(rows[0].point.config)
        for cell in rows:
            say(f"[bench]   engine {cell.engine} ({cell.mode}, {cell.storage})")
            records.append(run_cell(cell, workload, batch_size, repeats))
    say("[bench] workload service-overhead")
    records.extend(_service_overhead_records(scale, batch_size))
    records.extend(_query_scale_records(batch_size, say, queries_max))
    return {
        "schema": SCHEMA,
        "generated_by": "repro.workloads.perfjson",
        "scale": scale,
        "batch_size": batch_size,
        "queries_max": queries_max,
        "workloads": sorted({record.workload for record in records}),
        "engines": sorted({record.engine for record in records}),
        "results": [asdict(record) for record in records],
        "summary": _summarise(records),
    }


# --------------------------------------------------------------------------- #
# the benchmark trajectory: one JSONL line per bench-all run
# --------------------------------------------------------------------------- #
#: the trajectory file ``bench-all`` appends to under ``--history-dir``
HISTORY_FILENAME = "bench_history.jsonl"


def _git_sha() -> Optional[str]:
    """Short commit id of the checkout this module runs from, else ``None``."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def history_entry(
    document: Dict[str, Any], timestamp: Optional[str] = None
) -> Dict[str, Any]:
    """Condense one bench-all document into one trajectory line.

    The line keeps what trend analysis needs -- the summary ratios plus a
    ``docs_per_sec`` map keyed ``workload/engine/mode`` (``@workers``
    appended for proc cells, ``+storage`` for a backend other than
    ``"bisect"``) -- and drops the per-cell latency detail, so years of runs
    stay grep-able and cheap to parse.  Each line also records the Python
    version, platform, CPU count and git commit of the run: the trajectory
    file accumulates runs from different containers (1-core CI against
    multi-core dev hosts), throughput trends are only comparable within
    one environment, and a thread/process ratio without a core count is
    uninterpretable.
    """
    if timestamp is None:
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        )
    throughput: Dict[str, float] = {}
    for record in document.get("results", []):
        key = f"{record['workload']}/{record['engine']}/{record['mode']}"
        if record.get("concurrency") is not None:
            key += f"@{record['concurrency']}"
        if record.get("storage", "bisect") != "bisect":
            key += f"+{record['storage']}"
        throughput[key] = round(float(record["docs_per_sec"]), 2)
    return {
        "ts": timestamp,
        "schema": document.get("schema", SCHEMA),
        "scale": document.get("scale"),
        "batch_size": document.get("batch_size"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "summary": dict(document.get("summary", {})),
        "docs_per_sec": throughput,
    }


def append_history(
    document: Dict[str, Any],
    history_dir: Any,
    timestamp: Optional[str] = None,
) -> Any:
    """Append the condensed entry for ``document`` to the trajectory file.

    Returns the path appended to (``history_dir/bench_history.jsonl``;
    the directory is created on first use).
    """
    path = Path(history_dir) / HISTORY_FILENAME
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = history_entry(document, timestamp=timestamp)
    with open(path, "a", encoding="utf-8") as handle:
        json.dump(entry, handle, separators=(",", ":"))
        handle.write("\n")
    return path


def read_history(history_dir: Any) -> List[Dict[str, Any]]:
    """The trajectory entries of ``history_dir``, oldest first.

    Blank lines are skipped; a malformed line raises ``ValueError`` with
    its line number (the file is append-only, so corruption means a
    half-written final line -- fail loudly rather than silently trimming
    the trend).
    """
    path = Path(history_dir) / HISTORY_FILENAME
    if not path.is_file():
        return []
    entries: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except ValueError as error:
                raise ValueError(
                    f"{path}:{line_number}: malformed history line: {error}"
                ) from error
    return entries
