"""Per-layer instrumentation: the right families appear with real values."""

from __future__ import annotations

import asyncio

from repro.observability import runtime
from repro.service import (
    AsyncMonitoringService,
    EngineSpec,
    MonitoringService,
    WindowSpec,
)

DOCS = [
    "market rally interest rates",
    "storm warning coastal flood",
    "tech earnings beat expectations",
    "inflation data rate hike",
    "coast bank defence towns",
    "cuts cooling stream query",
]


def _family_value(snapshot, name, **labels):
    for sample in snapshot["families"][name]["samples"]:
        if sample["labels"] == labels:
            return sample
    raise AssertionError(f"no sample of {name} with labels {labels}")


# --------------------------------------------------------------------------- #
# the synchronous service
# --------------------------------------------------------------------------- #
def test_service_counters_and_alert_lag() -> None:
    with runtime.observed():
        with MonitoringService(
            EngineSpec(kind="ita", window=WindowSpec.count(16))
        ) as service:
            alerts = []
            service.subscribe("market rates rally", k=2, on_change=alerts.append)
            service.ingest(DOCS)
            service.ingest(DOCS)
            snapshot = service.metrics()
            prometheus = service.metrics_prometheus()

        assert _family_value(snapshot, "repro_service_subscribe_total")["value"] == 1.0
        assert (
            _family_value(snapshot, "repro_service_ingest_calls_total")["value"] == 2.0
        )
        assert (
            _family_value(snapshot, "repro_service_ingest_documents_total")["value"]
            == float(2 * len(DOCS))
        )
        assert _family_value(snapshot, "repro_service_ingest_ms")["count"] == 2
        assert alerts, "the standing query must have fired"
        assert (
            _family_value(snapshot, "repro_service_alerts_delivered_total")["value"]
            == float(len(alerts))
        )
        assert _family_value(snapshot, "repro_service_alert_delivery_lag_ms")["count"] > 0

        # The engine operation counters ride the scrape-time collector.
        ops = {
            tuple(sample["labels"].items()): sample["value"]
            for sample in snapshot["collected"]["repro_engine_ops_total"]
        }
        assert ops[(("op", "arrivals"),)] == float(2 * len(DOCS))
        assert "repro_service_ingest_ms_bucket" in prometheus
        assert 'repro_engine_ops_total{op="arrivals"}' in prometheus

        # So does the analyzer's surface-form table: every token of the
        # query and of both passes over DOCS was looked up, and the second
        # pass met no new surface form.
        collected = snapshot["collected"]
        stats = service.analyzer.surface_table_stats()
        distinct = {word for text in DOCS for word in text.split()}
        assert stats["tokens"] == 3 + 2 * sum(len(text.split()) for text in DOCS)
        assert stats["misses"] == stats["entries"] == len(distinct)
        assert collected["repro_text_tokens_total"] == [{"labels": {}, "value": float(stats["tokens"])}]
        assert collected["repro_text_surface_misses_total"] == [{"labels": {}, "value": float(stats["misses"])}]
        assert collected["repro_text_surface_forms"] == [{"labels": {}, "value": float(stats["entries"])}]
        assert "repro_text_surface_forms " in prometheus


def test_service_metrics_survive_registry_swap() -> None:
    """enable() swaps the registry; the collector must re-register."""
    with runtime.observed():
        with MonitoringService(
            EngineSpec(kind="ita", window=WindowSpec.count(16))
        ) as service:
            service.ingest(DOCS)
            runtime.enable()  # fresh registry mid-flight
            service.ingest(DOCS)
            snapshot = service.metrics()
            assert (
                _family_value(snapshot, "repro_service_ingest_calls_total")["value"]
                == 1.0
            )
            # The collector reports cumulative engine counters regardless.
            ops = {
                tuple(sample["labels"].items()): sample["value"]
                for sample in snapshot["collected"]["repro_engine_ops_total"]
            }
            assert ops[(("op", "arrivals"),)] == float(2 * len(DOCS))


STAGES = {"expire", "arrival", "rollup", "evict", "descent", "collect"}


def _stage_ms(registry):
    return {
        sample["labels"]["stage"]: sample["value"]
        for sample in registry.snapshot()["families"]["repro_engine_stage_ms_total"][
            "samples"
        ]
    }


def test_engine_stage_timers_cover_rare_paths_too() -> None:
    with runtime.observed() as registry:
        with MonitoringService(
            EngineSpec(kind="ita", window=WindowSpec.count(4))
        ) as service:
            service.subscribe("market rates rally storm", k=3)
            for _ in range(12):
                service.ingest(DOCS)
        stages = _stage_ms(registry)
    # expire/arrival accrue on every batch; the rare stages (roll-up,
    # eviction, descent) and collect are flushed with them, worked or not.
    assert stages["expire"] >= 0.0
    assert stages["arrival"] > 0.0
    assert set(stages) == STAGES


def test_default_service_is_timed_by_the_kernel_not_the_reference_loop(monkeypatch) -> None:
    """Telemetry on must not hand a default service's documents to
    ``ITAEngine.process``: the columnar kernel reports all six stages."""
    from repro.core.engine import ITAEngine

    def handed_off(self, document):
        raise AssertionError("the observed kernel handed off to ITAEngine.process")

    monkeypatch.setattr(ITAEngine, "process", handed_off)
    with runtime.observed() as registry:
        with MonitoringService(
            EngineSpec(kind="ita", window=WindowSpec.count(4))
        ) as service:
            service.subscribe("market rates rally storm", k=3)
            service.ingest(DOCS)
        stages = _stage_ms(registry)
    assert set(stages) == STAGES


def test_stage_times_sum_to_the_kernel_wall_time() -> None:
    """Self times: the six stages add up to the time spent inside
    ``process_batch_events`` -- never more, and (best of three) >= 90%."""
    from time import perf_counter

    from repro.workloads.generators import build_workload
    from repro.workloads.runner import prepare_engine
    from tests.observability.test_overhead import _figure3a_point

    point = _figure3a_point()  # n=10, 4000 measured events
    workload = build_workload(point.config)
    coverage = []
    for _ in range(3):
        engine = prepare_engine("ita-columnar", point, workload)
        engine.track_changes = True  # so ``collect`` has work to time
        wall_ms = 0.0
        with runtime.observed() as registry:
            for start in range(0, len(workload.measured), 64):
                chunk = workload.measured[start : start + 64]
                began = perf_counter()
                engine.process_batch_events(chunk)
                wall_ms += (perf_counter() - began) * 1000.0
            stages = _stage_ms(registry)
        assert set(stages) == STAGES
        assert all(value >= 0.0 for value in stages.values())
        assert sum(stages.values()) <= wall_ms
        coverage.append(sum(stages.values()) / wall_ms)
    assert max(coverage) >= 0.9, coverage


# --------------------------------------------------------------------------- #
# the async service and pipeline
# --------------------------------------------------------------------------- #
def test_async_and_pipeline_families() -> None:
    async def scenario():
        async with AsyncMonitoringService(
            EngineSpec(kind="sharded", num_shards=2, window=WindowSpec.count(16)),
            queue_depth=2,
            batch_size=2,
        ) as service:
            await service.subscribe("market rates rally", k=2)
            for _ in range(4):
                await service.ingest(DOCS)
            await service.results()
            # Captured inside: aclose unregisters the lane's collector.
            return runtime.metrics.snapshot()

    with runtime.observed():
        snapshot = asyncio.run(scenario())

    # An async ingest records the synchronous façade's families.
    assert (
        _family_value(snapshot, "repro_service_ingest_documents_total")["value"]
        == float(4 * len(DOCS))
    )
    assert _family_value(snapshot, "repro_service_ingest_calls_total")["value"] == 4.0
    assert _family_value(snapshot, "repro_service_alert_delivery_lag_ms")["count"] > 0

    collected = snapshot["collected"]
    events = sum(entry["value"] for entry in collected["repro_pipeline_events_total"])
    assert events == float(4 * len(DOCS))
    # One lane: the families are unlabelled, whatever the shard count.
    [batches] = collected["repro_pipeline_batches_total"]
    assert not batches["labels"]
    assert batches["value"] == float(4 * len(DOCS) // 2)
    [busy] = collected["repro_pipeline_busy_ms_total"]
    assert busy["value"] > 0.0
    [depth] = collected["repro_pipeline_queue_depth"]
    assert depth["value"] == 0.0  # results() drained the lane
    [peak] = collected["repro_pipeline_max_inflight"]
    assert 1.0 <= peak["value"] <= 2.0  # bounded by queue_depth
    assert "repro_pipeline_submit_wait_ms_total" in collected
    assert not any("lane" in family or "merge" in family for family in collected)


def test_pipeline_trace_spans_cross_threads() -> None:
    async def scenario():
        async with AsyncMonitoringService(
            EngineSpec(kind="sharded", num_shards=2, window=WindowSpec.count(16)),
            batch_size=3,
        ) as service:
            await service.ingest(DOCS)
            await service.results()

    with runtime.observed():
        asyncio.run(scenario())
        spans = runtime.tracer.spans()

    submits = [span for span in spans if span.name == "pipeline.submit"]
    lanes = [span for span in spans if span.name == "pipeline.lane"]
    assert submits and lanes
    submit_ids = {span.span_id for span in submits}
    # Every lane span carries its submitting batch as the parent, even
    # though it ran on the worker thread -- explicit context propagation.
    assert all(span.parent_id in submit_ids for span in lanes)
    assert {span.tid for span in lanes}.isdisjoint(span.tid for span in submits)


# --------------------------------------------------------------------------- #
# durability: WAL, checkpoint, recovery
# --------------------------------------------------------------------------- #
def test_wal_checkpoint_and_recovery_families(tmp_path) -> None:
    from repro import DurabilityPolicy

    spec = EngineSpec(
        kind="ita",
        window=WindowSpec.count(16),
        durability=DurabilityPolicy(fsync="interval", fsync_interval=4, checkpoint_every=8),
    )
    with runtime.observed() as registry:
        service = MonitoringService.open(tmp_path, spec)
        service.subscribe("market rates rally", k=2)
        for _ in range(4):
            service.ingest(DOCS)
        service.close()
        recovered = MonitoringService.open(tmp_path)
        report = recovered.last_recovery
        recovered.close()
        snapshot = registry.snapshot()

    assert _family_value(snapshot, "repro_wal_appends_total")["value"] > 0
    assert _family_value(snapshot, "repro_wal_bytes_total")["value"] > 0
    assert _family_value(snapshot, "repro_wal_fsync_ms")["count"] > 0
    assert _family_value(snapshot, "repro_wal_checkpoints_total")["value"] > 0
    assert _family_value(snapshot, "repro_wal_checkpoint_ms")["count"] > 0
    assert _family_value(snapshot, "repro_recovery_total")["value"] == 1.0
    phases = {
        sample["labels"]["phase"]
        for sample in snapshot["families"]["repro_recovery_phase_ms"]["samples"]
    }
    assert phases == {"manifest", "checkpoint_load", "restore", "replay"}
    # The report carries the same breakdown for offline consumers.
    assert set(report.phase_ms) == phases
    assert sum(report.phase_ms.values()) <= report.duration_ms + 1.0
    assert report.as_dict()["phase_ms"].keys() == report.phase_ms.keys()


def test_disabled_mode_records_nothing(tmp_path) -> None:
    assert runtime.active is False
    before_families = dict(runtime.metrics.snapshot()["families"])
    with MonitoringService(
        EngineSpec(kind="ita", window=WindowSpec.count(16))
    ) as service:
        service.subscribe("market rates rally", k=2)
        service.ingest(DOCS)
    assert runtime.metrics.snapshot()["families"].keys() == before_families.keys()
    assert len(runtime.tracer) == 0
