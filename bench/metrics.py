"""The benchmark's metrics: names, units, directions, bounds, predictions.

This table is the single source for what ``run.py`` prints, what
``compare.py`` gates on and what ``README.md`` documents; a test checks
that ``BENCHMARK.json`` lists exactly these names with these units.

Load model: **closed loop, one caller, one thread**.  The service is a
synchronous in-process library whose caller blocks on ``ingest()``, so
``docs_per_s`` *is* the sustainable rate; there is no queue to grow.

Every end-to-end timing is taken per block of 100 timed calls (per set-up,
per recovery), reported relative to the calibration task timed beside it,
and the run reports the median of those values; ``harness.py`` and
``calibrate.py`` say why.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

__all__ = ["EndToEnd", "PerLayer", "END_TO_END", "PER_LAYER", "INTERACTIONS"]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may get worse
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: the end-to-end metric(s) and workload(s) this number should move,
    #: written down before anything was measured
    moves: str
    meaning: str


#: Timings may get worse by a quarter before a change counts as a regression.
#: The issue asked for 10-15%; the host the benchmark was built on does not
#: allow it -- neighbours on its physical cores slow it by up to 40% for
#: minutes at a time.  Even relative to the calibration task, ten runs of one
#: commit spread 3-20% on these metrics (10% in the middle; see README.md),
#: and the contract wants a spread well inside the bound.
_TIMING_BOUND = 0.25

END_TO_END: List[EndToEnd] = [
    EndToEnd("docs_per_s", "docs/s", "higher", _TIMING_BOUND,
             "documents ingested / wall time of a block (closed loop, so this is the sustainable rate)"),
    EndToEnd("ingest_p50_ms", "ms", "lower", _TIMING_BOUND,
             "median latency of one service.ingest() call: raw text handed in -> call returns, every callback returned"),
    EndToEnd("ingest_p99_ms", "ms", "lower", _TIMING_BOUND,
             "99th percentile of the same; every run times >= 1000 calls, so >= 10 samples lie beyond it"),
    EndToEnd("alert_p50_ms", "ms", "lower", _TIMING_BOUND,
             "median alert lateness: start of the ingest() call carrying the triggering document -> entry of the alert callback"),
    EndToEnd("alert_p99_ms", "ms", "lower", _TIMING_BOUND,
             "99th percentile of the same, one sample per alert"),
    EndToEnd("subscribe_p50_ms", "ms", "lower", _TIMING_BOUND,
             "median latency of service.subscribe() against a full window (initial subscriptions, in groups each calibrated on its own; "
             "on churn_mixed the ones issued beside the stream)"),
    EndToEnd("setup_s", "s", "lower", _TIMING_BOUND,
             "service construction + window pre-fill + all initial subscriptions, median of the three set-ups in a run (input generation excluded)"),
    EndToEnd("recover_s", "s", "lower", _TIMING_BOUND,
             "a fresh service gets the state back: MonitoringService.open(dir) on the directory of a service abandoned without close() "
             "(bulk_durable), MonitoringService.restore(snapshot) elsewhere"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10,
             "ru_maxrss of the workload process after the measured phase (inputs included)"),
]

_KERNEL = "docs_per_s, ingest_p50_ms, alert_p50_ms on alerts_steady and churn_mixed; recover_s on bulk_durable"
_TEXT = "docs_per_s, ingest_p50_ms on text_heavy; < 10% share, no visible effect, on alerts_steady"
_REGISTER = "subscribe_p50_ms on churn_mixed; setup_s everywhere"
_ALERTING = "alert_p99_ms, docs_per_s on query_scale"
_QUERYSCALE = "docs_per_s, alert_p99_ms, peak_rss_mb, setup_s on query_scale"
_DURABILITY = "docs_per_s, ingest_p99_ms, recover_s on bulk_durable"
_CLUSTER = "docs_per_s, ingest_p50_ms on proc_cluster"

PER_LAYER: List[PerLayer] = [
    PerLayer("text.analyze_ms_per_doc", "ms/doc", "lower", _TEXT,
             "self time of Analyzer.term_frequencies (tokenise, stop, stem, count)"),
    PerLayer("text.tokens_per_doc", "count", "lower", _TEXT, "raw whitespace tokens handed in per document"),
    PerLayer("text.vocab_size", "count", "lower", _TEXT, "terms in the service vocabulary at the end"),
    PerLayer("weighting.weights_ms_per_doc", "ms/doc", "lower", _TEXT,
             "self time of the weighting scheme's document_weights/query_weights"),
    PerLayer("service.self_ms_per_doc", "ms/doc", "lower", "docs_per_s on text_heavy",
             "the service.ingest span minus all children: vocabulary interning, Document construction, stamping -- the unattributed residual"),
    PerLayer("service.ingest_calls", "count", "higher", "docs_per_s on text_heavy",
             "timed ingest() calls in the measured phase"),
    PerLayer("core.process_ms_per_doc", "ms/doc", "lower", _KERNEL,
             "self time of engine.process/advance_time on a single engine (index maintenance + ITA kernel)"),
    PerLayer("core.scores_per_doc", "count", "lower", _KERNEL, "full similarity scores computed per document"),
    PerLayer("core.rollup_steps_per_doc", "count", "lower", _KERNEL, "threshold roll-up steps per document"),
    PerLayer("core.refills_per_doc", "count", "lower", _KERNEL, "result refills after expirations per document"),
    PerLayer("core.evictions_per_doc", "count", "lower", _KERNEL, "result evictions per document"),
    PerLayer("core.changes_per_score", "ratio", "higher", _KERNEL,
             "useful / attempted: result changes reported by the engine / scores computed"),
    PerLayer("index.threshold_probes_per_doc", "count", "lower", _KERNEL, "threshold-tree probes per document"),
    PerLayer("index.postings_scanned_per_doc", "count", "lower", _KERNEL, "postings read by threshold descents per document"),
    PerLayer("index.postings_inserted_per_doc", "count", "lower", _KERNEL, "postings inserted per document"),
    PerLayer("documents.expirations_per_doc", "count", "lower", _KERNEL, "window expirations per document"),
    PerLayer("documents.window_size", "count", "lower", _KERNEL, "valid documents in the window at the end"),
    PerLayer("core.register_ms_per_query", "ms/query", "lower", _REGISTER,
             "self time of engine.register_query per registered query (initial top-k search)"),
    PerLayer("core.unregister_ms_per_query", "ms/query", "lower", _REGISTER,
             "self time of engine.unregister_query per removed query"),
    PerLayer("alerting.dispatch_ms_per_doc", "ms/doc", "lower", _ALERTING,
             "self time of AlertDispatcher.process (Alert construction, fan-out loops, handle buffering)"),
    PerLayer("alerting.callback_ms_per_doc", "ms/doc", "lower", _ALERTING, "time inside the alert callbacks"),
    PerLayer("alerting.alerts_per_doc", "count", "lower", _ALERTING, "alerts delivered per document"),
    PerLayer("queryscale.batch_ms_per_doc", "ms/doc", "lower", _QUERYSCALE, "self time of begin_batch + end_batch"),
    PerLayer("queryscale.expand_ms_per_doc", "ms/doc", "lower", _QUERYSCALE,
             "self time of expand_changes (relabel one canonical change per subscriber)"),
    PerLayer("queryscale.fanout_ratio", "ratio", "lower", _QUERYSCALE,
             "subscriber changes out / canonical changes in"),
    PerLayer("queryscale.canonical_queries", "count", "lower", _QUERYSCALE, "distinct canonical queries on the engine"),
    PerLayer("queryscale.bytes_per_query", "bytes", "lower", _QUERYSCALE,
             "QueryScaleManager.bytes_resident() / subscriptions"),
    PerLayer("durability.log_ingest_ms_per_doc", "ms/doc", "lower", _DURABILITY,
             "self time of DurabilityLog.log_ingest (encode, append, flush, fsync)"),
    PerLayer("durability.checkpoint_ms", "ms/ckpt", "lower", _DURABILITY,
             "mean duration of one automatic checkpoint in the measured phase"),
    PerLayer("durability.checkpoints", "count", "lower", _DURABILITY, "automatic checkpoints in the counted prefix"),
    PerLayer("durability.wal_bytes_per_doc", "bytes/doc", "lower", _DURABILITY,
             "bytes written under the durability directory (WAL + checkpoints) / documents, over the counted prefix; repeats exactly"),
    PerLayer("durability.replay_ms_per_doc", "ms/doc", "lower", _DURABILITY,
             "RecoveryReport replay phase / replayed documents"),
    PerLayer("durability.replayed_docs", "count", "lower", _DURABILITY, "documents replayed from the WAL tail on recovery"),
    PerLayer("persistence.snapshot_ms", "ms", "lower", "recover_s everywhere; durability.checkpoint_ms",
             "one service.snapshot() after the measured phase"),
    PerLayer("persistence.snapshot_bytes", "bytes", "lower", "recover_s everywhere; durability.checkpoint_ms",
             "JSON size of that snapshot"),
    PerLayer("persistence.restore_ms", "ms", "lower", "recover_s everywhere",
             "rebuilding a service from the snapshot/checkpoint (for bulk_durable: checkpoint load + restore phases of the RecoveryReport)"),
    PerLayer("cluster.process_ms_per_doc", "ms/doc", "lower", _CLUSTER,
             "coordinator wall time inside engine.process on sharded-proc (encode, send, wait for the slower worker, merge)"),
    PerLayer("cluster.coordinator_cpu_ms_per_doc", "ms/doc", "lower", _CLUSTER,
             "process CPU time of the coordinator over the measured phase"),
    PerLayer("cluster.worker_cpu_ms_per_doc", "ms/doc", "lower", _CLUSTER,
             "RUSAGE_CHILDREN CPU time after close / documents the workers processed"),
    PerLayer("cluster.worker_peak_rss_mb", "MiB", "lower", _CLUSTER, "largest worker ru_maxrss"),
    PerLayer("cluster.shard_skew", "ratio", "lower", _CLUSTER, "max / mean of shard_query_counts()"),
    PerLayer("net.wire_bytes_per_doc", "bytes/doc", "lower", _CLUSTER,
             "JSON length of the public document_record x workers, over the final window"),
    PerLayer("net.encode_ms_per_doc", "ms/doc", "lower", _CLUSTER,
             "time to build and JSON-encode one document_record, measured over the final window after the run"),
    PerLayer("net.worker_restarts", "count", "lower", _CLUSTER, "worker restarts during the run"),
    PerLayer("bench.traced_ms_per_doc", "ms/doc", "lower", "none: the traced counterpart of 1000 / docs_per_s",
             "traced measured-phase wall time per document; against the untraced run it gives bench.trace_overhead"),
    PerLayer("bench.attributed_share", "ratio", "higher", "none: sanity of the waterfall",
             "span self times (service.self included) / traced measured-phase wall time"),
    PerLayer("bench.spans_per_doc", "count", "lower", "none: explains the trace overhead", "spans recorded per document"),
]

#: how the layers' numbers combine -- recorded with the table, before measuring
INTERACTIONS: List[str] = [
    "One thread, no contention: a faster layer saves at most its self-time share of ingest_p50_ms.",
    "ingest_p99_ms on bulk_durable is set by the calls that fsync or checkpoint, not by the median path.",
    "alert_* inside a batch includes the WAL append and every earlier document of the batch.",
    "In proc_cluster an ingest waits for the slower worker.",
]


def bounds() -> Dict[str, EndToEnd]:
    return {metric.name: metric for metric in END_TO_END}
