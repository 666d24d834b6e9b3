"""The ``repro obs`` workload: one instrumented run, every metric family.

``python -m repro.workloads.cli obs`` needs a workload that lights up the
whole telemetry surface at once -- the service counters, the engine stage
timers and operation counters, the async ingestion lane's gauges, the WAL
and checkpoint histograms, and the recovery phase breakdown -- so the
exposition it prints (and the ``obs-smoke`` CI job validates) exercises
the same metric names a real deployment would scrape.

:func:`run_observed_workload` therefore runs two deterministic phases
under one :func:`repro.observability.runtime.observed` scope:

1. a *durable* phase: a WAL-backed :class:`~repro.MonitoringService`
   subscribes standing queries, ingests a seeded stream through the
   logged batched path (checkpoints fire mid-stream), closes, and is
   recovered -- producing the ``repro_service_*``, ``repro_wal_*`` and
   ``repro_recovery_*`` families;
2. an *async* phase: a sharded cluster behind an
   :class:`~repro.AsyncMonitoringService` ingests the same kind of
   stream through the ingestion lane -- producing the
   ``repro_pipeline_*`` families plus the engine operation counters of
   the live cluster (its ingests count in the ``repro_service_*`` ones).

The registry is captured *inside* the async phase (after the reads
drained the lane, before ``aclose`` unregisters the lane's
scrape-time collector), so the returned exposition carries every family.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from repro.observability import runtime

__all__ = ["run_observed_workload", "REQUIRED_FAMILIES"]

_WORDS = (
    "market rates storm flood inflation earnings coast bank tech rally "
    "warning data fears defence towns expectations cuts cooling stream "
    "query threshold window document arrival expiry alert shard log"
).split()

#: metric families every ``obs`` run must expose -- what the ``obs-smoke``
#: CI job (and ``tests/observability/test_obsrun.py``) asserts against
REQUIRED_FAMILIES = (
    "repro_service_subscribe_total",
    "repro_service_ingest_documents_total",
    "repro_service_ingest_ms",
    "repro_pipeline_events_total",
    "repro_pipeline_busy_ms_total",
    "repro_engine_ops_total",
    "repro_wal_appends_total",
    "repro_wal_fsync_ms",
    "repro_wal_checkpoint_ms",
    "repro_recovery_phase_ms",
)


def _stream(rng: random.Random, batches: int, batch_size: int):
    return [
        [" ".join(rng.choices(_WORDS, k=10)) for _ in range(batch_size)]
        for _ in range(batches)
    ]


def _durable_phase(directory: Path, documents: int) -> Dict[str, Any]:
    """WAL-backed service: subscribe, logged ingest, checkpoint, recover."""
    from repro import DurabilityPolicy, EngineSpec, MonitoringService, WindowSpec

    spec = EngineSpec(
        kind="ita",
        window=WindowSpec.count(128),
        durability=DurabilityPolicy(
            fsync="interval", fsync_interval=8, checkpoint_every=64
        ),
    )
    rng = random.Random(20090401)
    alerts = []
    service = MonitoringService.open(directory, spec)
    try:
        for _ in range(4):
            service.subscribe(
                " ".join(rng.sample(_WORDS, 4)),
                k=3,
                on_change=alerts.append,
            )
        batch_size = 16
        for batch in _stream(rng, max(1, documents // batch_size), batch_size):
            service.ingest(batch)
    finally:
        service.close()

    # Recovering the directory exercises the recovery phase breakdown.
    recovered = MonitoringService.open(directory)
    report = recovered.last_recovery
    recovered.close()
    return {
        "documents": documents,
        "alerts": len(alerts),
        "recovery_phase_ms": dict(report.phase_ms) if report else {},
    }


async def _async_phase(documents: int) -> Dict[str, Any]:
    """Sharded cluster through the async ingestion lane; captures inside."""
    from repro import AsyncMonitoringService, EngineSpec, WindowSpec

    spec = EngineSpec(kind="sharded", num_shards=4, window=WindowSpec.count(64))
    rng = random.Random(20090402)
    async with AsyncMonitoringService(spec, queue_depth=2, batch_size=8) as service:
        for _ in range(4):
            await service.subscribe(" ".join(rng.sample(_WORDS, 4)), k=3)
        for batch in _stream(rng, max(1, documents // 16), 16):
            await service.ingest(batch)
        await service.results()  # drain: the lane totals are final
        # Captured before ``aclose`` so the lane's scrape-time collector
        # is still registered.
        return {
            "prometheus": runtime.metrics.to_prometheus(),
            "snapshot": runtime.metrics.snapshot(),
            "batches": service.stats.batches,
            "events": service.stats.events,
        }


def run_observed_workload(
    documents: int = 192,
    slow_threshold_ms: Optional[float] = None,
    trace_capacity: Optional[int] = None,
) -> Dict[str, Any]:
    """Run both phases under one observed scope; return the exposition.

    Returns
    -------
    dict
        ``prometheus`` (text exposition), ``snapshot`` (the JSON registry
        snapshot), ``chrome_trace`` (Chrome ``chrome://tracing`` JSON
        string), ``slow_ops`` (the slow-operation log), ``durable`` and
        ``async`` (per-phase run statistics).
    """
    directory = Path(tempfile.mkdtemp(prefix="repro-obs-"))
    try:
        with runtime.observed(
            slow_threshold_ms=slow_threshold_ms, trace_capacity=trace_capacity
        ):
            durable = _durable_phase(directory, documents)
            captured = asyncio.run(_async_phase(documents))
            chrome_trace = runtime.tracer.to_chrome_json()
            slow_ops = runtime.slowlog.as_dicts()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "prometheus": captured["prometheus"],
        "snapshot": captured["snapshot"],
        "chrome_trace": chrome_trace,
        "slow_ops": slow_ops,
        "durable": durable,
        "async": {key: captured[key] for key in ("batches", "events")},
    }
