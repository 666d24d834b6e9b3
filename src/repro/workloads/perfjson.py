"""The machine-readable performance harness: the paper's evaluation, as data.

The paper's evaluation (Section IV, Figure 3(a)/(b)) asks one question --
how much faster is ITA than Naive and k_max-Naive per arrival, as query
length and window size vary -- and this module answers exactly that on
bare engines.  Everything end to end (text in, alert out; the write-ahead
log, the process cluster, query dedup, the service facade) is measured by
the ``bench/`` workloads, which are the performance gate; nothing here is.

* :func:`default_suite` is a literal table of cell rows ``(workload,
  point, engine, mode, storage)``: the Figure 3(a) and 3(b) settings and
  the query-count ablation, each on ITA (sequential and batched), Naive
  and Naive-k_max, plus Figure 3(a)'s batched ITA cell on columnar storage.
* Every cell is timed by the one loop
  :func:`repro.workloads.runner.measure_chunks` and becomes a record
  through one constructor, :func:`_record`.
* :data:`SUMMARY` is the table of published ratios -- numerator cell,
  denominator cell, field, dashboard note -- walked by one loop.
* :func:`check_document` is the one list of checks on an emitted document;
  ``bench-all`` runs it on what it is about to write.

The emitted JSON document (``BENCH_results.json`` by convention) is one
record per cell, the summary, and the host and commit of the run::

    python -m repro.workloads.cli bench-all --out BENCH_results.json

``docs/BENCHMARKING.md`` documents the JSON schema, how to compare two runs
and how to add a cell or a ratio (one row each); ``schema`` is bumped
whenever a field changes meaning.
"""

from __future__ import annotations

import datetime
import itertools
import json
import os
import platform
import subprocess
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import ExperimentError
from repro.observability.timing import PercentileSummary
from repro.workloads.experiments import (
    SCALES,
    ExperimentDefinition,
    SweepPoint,
    ablation_num_queries,
    figure_3a,
    figure_3b,
)
from repro.workloads.generators import GeneratedWorkload, build_workload
from repro.workloads.runner import best_of, measure_chunks, prepare_engine

__all__ = [
    "SCHEMA",
    "DEFAULT_BATCH_SIZE",
    "SUMMARY",
    "HISTORY_FILENAME",
    "BenchRecord",
    "BenchCell",
    "point_by_label",
    "default_suite",
    "run_cell",
    "run_bench_suite",
    "check_document",
    "history_entry",
    "append_history",
    "read_history",
]

#: bump when a field of the emitted JSON changes meaning
SCHEMA = "repro-bench/8"

#: default chunk size of the batched measurement mode
DEFAULT_BATCH_SIZE = 64

CellKey = Tuple[str, str, str, str]  # (workload, engine, mode, storage)
Measurement = Tuple[float, List[float], int, int]  # (total_ms, samples, events, scores)


@dataclass(frozen=True)
class BenchRecord:
    """One measurement: a (workload, point, engine, mode, storage) cell."""

    workload: str
    point: str
    engine: str
    #: "sequential" (one timed ``process()`` call per arrival -- the
    #: paper's metric) or "batched" (timed ``process_batch()`` chunks)
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

    @property
    def key(self) -> CellKey:
        return (self.workload, self.engine, self.mode, self.storage)


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
# the suite: one row per cell
# --------------------------------------------------------------------------- #
class BenchCell(NamedTuple):
    """One row of the suite: what to build and how to drive it."""

    workload: str
    point: SweepPoint
    #: engine kind, as recorded ("ita", "naive", "naive-kmax")
    engine: str
    mode: str
    storage: str = "bisect"

    @property
    def key(self) -> CellKey:
        """The key of the record this row produces."""
        return (self.workload, self.engine, self.mode, self.storage)


def point_by_label(definition: ExperimentDefinition, label: str) -> SweepPoint:
    """The sweep point of ``definition`` labelled exactly ``label``.

    A cell is recorded under the label it asked for, so a label the sweep
    does not have is an error, never another point's measurement.
    """
    for point in definition.points:
        if point.label == label:
            return point
    known = ", ".join(point.label for point in definition.points)
    raise ExperimentError(
        f"experiment {definition.experiment_id!r} has no sweep point {label!r} (known: {known})"
    )


def default_suite(scale: str = "small") -> List[BenchCell]:
    """The fixed benchmark suite of the repository, one row per cell.

    Three workloads, one representative sweep point each, every engine of
    the paper's comparison on each:

    * ``figure3a`` -- the paper's query-length setting at n=10, the
      headline workload.  Its bisect ``batched`` cell is the denominator
      of both published ratios; the ``columnar`` row repeats it on the
      array-backed storage backend every default service runs;
    * ``figure3b`` -- the window-size setting at N=100 (a small window
      stresses the per-event constant overheads);
    * ``ablation-queries`` -- double the scale's default query count
      (stresses the per-query maintenance).
    """
    figure3a = point_by_label(figure_3a(scale), "n=10")
    figure3b = point_by_label(figure_3b(scale), "N=100")
    queries = point_by_label(
        ablation_num_queries(scale), f"Q={2 * int(SCALES[scale]['num_queries'])}"
    )
    return [
        BenchCell("figure3a", figure3a, "ita", "sequential"),
        BenchCell("figure3a", figure3a, "ita", "batched"),
        BenchCell("figure3a", figure3a, "ita", "batched", "columnar"),
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
    ]


def _measure_cell(cell: BenchCell, workload: GeneratedWorkload, batch_size: int) -> Measurement:
    """One measurement of ``cell`` on a freshly prepared engine."""
    # A bare harness name means the paper-faithful "bisect" engine (see
    # spec_from_name), whatever the service default; another backend is
    # built through its storage-qualified name ("ita-columnar") and
    # recorded under the base kind, so backend pairs line up at the same
    # (engine, mode).
    name = cell.engine if cell.storage == "bisect" else f"{cell.engine}-{cell.storage}"
    engine = prepare_engine(name, cell.point, workload)
    measured = workload.measured
    if cell.mode == "sequential":
        timing = measure_chunks(lambda chunk: engine.process(chunk[0]), measured, 1)
    else:
        timing = measure_chunks(engine.process_batch, measured, batch_size)
    return timing + (len(measured), engine.counters.scores_computed)


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
    )


# --------------------------------------------------------------------------- #
# the summary: one table, one loop
# --------------------------------------------------------------------------- #
_BATCHED = ("figure3a", "ita", "batched", "bisect")

#: Every published number, one row each: ``(summary name, numerator cell
#: key, denominator cell key, field, note)``.  The value is the
#: :class:`BenchRecord` attribute ``field`` of the numerator cell over that
#: of the denominator cell.  ``note`` is the meaning shown beside the
#: number in the dashboard's headline table.
SUMMARY: Tuple[Tuple[str, CellKey, CellKey, str, str], ...] = (
    ("figure3a_ita_batched_over_naive_kmax",
     ("figure3a", "naive-kmax", "sequential", "bisect"), _BATCHED, "mean_ms",
     "ITA vs the paper's Naive-kmax competitor"),
    ("figure3a_columnar_over_batched",
     ("figure3a", "ita", "batched", "columnar"), _BATCHED, "docs_per_sec",
     "columnar kernel over batched bisect"),
)


def _summarise(records: Sequence[BenchRecord]) -> Dict[str, float]:
    """Walk :data:`SUMMARY` over the measured cells."""
    cells = {record.key: record for record in records}
    return {
        name: round(getattr(cells[numerator], field) / getattr(cells[denominator], field), 4)
        for name, numerator, denominator, field, _note in SUMMARY
    }


# --------------------------------------------------------------------------- #
# the whole suite
# --------------------------------------------------------------------------- #
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


#: the fields that attribute a document (and its history line) to the run
#: that produced it: throughput is only comparable within one environment,
#: and a trend line without a commit cannot be bisected
PROVENANCE = ("scale", "batch_size", "repeats", "python", "platform", "cpu_count", "git_sha")


def run_bench_suite(
    scale: str = "small",
    batch_size: int = DEFAULT_BATCH_SIZE,
    repeats: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the full suite and return the JSON-compatible result document.

    Every row of :func:`default_suite` is measured best-of-``repeats`` and
    the ``summary`` block is :data:`SUMMARY` evaluated over the records.
    The document is stamped here, once, with the host and commit of the
    run (:data:`PROVENANCE`); whoever condenses or renders it later, on
    whatever machine, copies those fields and never re-reads its own.
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
    return {
        "schema": SCHEMA,
        "generated_by": "repro.workloads.perfjson",
        "scale": scale,
        "batch_size": batch_size,
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "workloads": sorted({record.workload for record in records}),
        "engines": sorted({record.engine for record in records}),
        "results": [asdict(record) for record in records],
        "summary": _summarise(records),
    }


def check_document(document: Dict[str, Any]) -> None:
    """Raise :class:`ExperimentError` unless ``document`` is a complete
    ``bench-all`` artifact.

    The single list of checks on an emitted document: the current schema,
    the provenance stamp, exactly the cells of :func:`default_suite` at the
    document's scale with sane numbers, and exactly the ratios of
    :data:`SUMMARY`.  No ratio is held to a bound: one sample of a
    120-event cell is not a gate (``docs/BENCHMARKING.md`` states each
    ratio's spread).  ``bench-all`` runs it before writing anything, so a
    file on disk has passed it.
    """
    def invalid(reason: str) -> ExperimentError:
        return ExperimentError(f"invalid bench-all document: {reason}")

    if document.get("schema") != SCHEMA:
        raise invalid(f"schema is {document.get('schema')!r}, not {SCHEMA!r}")
    missing = [name for name in PROVENANCE if name not in document]
    if missing:
        raise invalid(f"provenance fields missing: {missing}")
    records = document["results"]
    keys = [
        (record["workload"], record["engine"], record["mode"], record["storage"])
        for record in records
    ]
    expected = [cell.key for cell in default_suite(document["scale"])]
    if keys != expected:
        raise invalid(f"cells are {keys}, expected {expected}")
    for key, record in zip(keys, records):
        if not (record["events"] > 0 and record["docs_per_sec"] > 0.0 and record["mean_ms"] > 0.0):
            raise invalid(f"{key}: nothing measured")
        if not record["p99_ms"] >= record["p50_ms"] >= 0.0:
            raise invalid(f"{key}: p50 {record['p50_ms']} / p99 {record['p99_ms']} out of order")
    if list(document["summary"]) != [name for name, *_rest in SUMMARY]:
        raise invalid(f"summary keys are {list(document['summary'])}")
    if json.loads(json.dumps(document)) != document:
        raise invalid("document does not survive a JSON round-trip")


# --------------------------------------------------------------------------- #
# the benchmark trajectory: one JSONL line per bench-all run
# --------------------------------------------------------------------------- #
#: the trajectory file ``bench-all`` appends to under ``--history-dir``
HISTORY_FILENAME = "bench_history.jsonl"


def history_entry(
    document: Dict[str, Any], timestamp: Optional[str] = None
) -> Dict[str, Any]:
    """Condense one bench-all document into one trajectory line.

    The line keeps what trend analysis needs -- the summary ratios plus a
    ``docs_per_sec`` map keyed ``workload/engine/mode`` (``+storage``
    appended for a backend other than ``"bisect"``) -- and drops the
    per-cell latency detail, so years of runs stay grep-able and cheap to
    parse.  The :data:`PROVENANCE` fields are copied from the document:
    the trajectory file accumulates runs from different containers (1-core
    CI against multi-core dev hosts), and a line condensed on one machine
    from a run made on another must describe the run, not the reader.
    """
    if timestamp is None:
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        )
    throughput: Dict[str, float] = {}
    for record in document.get("results", []):
        key = f"{record['workload']}/{record['engine']}/{record['mode']}"
        if record.get("storage", "bisect") != "bisect":
            key += f"+{record['storage']}"
        throughput[key] = round(float(record["docs_per_sec"]), 2)
    return {
        "ts": timestamp,
        "schema": document.get("schema", SCHEMA),
        **{name: document.get(name) for name in PROVENANCE},
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
