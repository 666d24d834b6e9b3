"""Observability end to end: metrics, traces, slow ops, a dashboard.

Run with::

    python examples/observability_dashboard.py

The telemetry subsystem (``repro.observability``) is off by default and
free when off.  This example turns it on for a scoped run and walks the
whole surface:

1. an instrumented :class:`~repro.MonitoringService` session -- ingest
   latency histograms, alert delivery lag, per-stage engine timers,
2. Prometheus text exposition and the JSON snapshot,
3. the span trace (Chrome trace-event JSON -- load it in Perfetto or
   ``chrome://tracing``),
4. the slow-operation log (threshold lowered so the demo records some),
5. the markdown performance dashboard rendered from a bench-history
   entry plus the live metrics snapshot -- the same renderer CI's
   ``obs-smoke`` job uses for its ``PERF_dashboard.md`` artifact.
"""

from __future__ import annotations

import json

from repro import EngineSpec, MonitoringService, WindowSpec
from repro.observability import runtime
from repro.workloads.perfjson import history_entry
from repro.workloads.reporting import render_perf_dashboard

HEADLINES = [
    "Stocks rally as the central bank holds interest rates steady",
    "Severe storm warning issued for the northern coast tonight",
    "Markets tumble on fresh inflation data and rate-hike fears",
    "Flood defences hold as the storm passes the coastal towns",
    "Tech earnings beat expectations, lifting the broader market",
    "Central bank hints at rate cuts if inflation keeps cooling",
]


def main() -> None:
    # --- 1. an instrumented session -------------------------------------
    with runtime.observed(slow_threshold_ms=0.0) as registry:
        with MonitoringService(
            EngineSpec(kind="ita", window=WindowSpec.count(16))
        ) as service:
            alerts = []
            service.subscribe("market rates rally", k=2, on_change=alerts.append)
            service.subscribe("storm coastal flood", k=2, on_change=alerts.append)
            for _ in range(8):
                service.ingest(HEADLINES)
            snapshot = service.metrics()
            prometheus = service.metrics_prometheus()
        trace_json = runtime.tracer.to_chrome_json()
        slow_ops = runtime.slowlog.entries()

    print("=== 1. instrumented session ===")
    ingest = next(
        sample
        for sample in snapshot["families"]["repro_service_ingest_ms"]["samples"]
    )
    print(f"ingest calls: {ingest['count']}, p99 <= {ingest['p99']} ms")
    print(f"alerts delivered: {len(alerts)}")
    stages = {
        sample["labels"]["stage"]: round(sample["value"], 3)
        for sample in snapshot["families"]["repro_engine_stage_ms_total"]["samples"]
    }
    print(f"engine stage time (ms): {stages}")

    # --- 2. exposition ---------------------------------------------------
    print("\n=== 2. Prometheus exposition (excerpt) ===")
    for line in prometheus.splitlines():
        if line.startswith("repro_service_ingest_documents_total") or line.startswith(
            "# TYPE repro_service_ingest_ms"
        ):
            print(line)

    # --- 3. the trace ----------------------------------------------------
    events = json.loads(trace_json)["traceEvents"]
    print(f"\n=== 3. trace: {len(events)} spans recorded ===")
    for event in events[:3]:
        print(f"{event['name']:20s} dur={event['dur']}us args={event['args']}")

    # --- 4. slow ops -----------------------------------------------------
    print(f"\n=== 4. slow-op log: {len(slow_ops)} entries over 0.0 ms ===")
    for entry in slow_ops[:3]:
        print(f"{entry.op:20s} {entry.elapsed_ms:8.3f} ms")

    # --- 5. the dashboard ------------------------------------------------
    bench_document = {
        "schema": "repro-bench/8",
        "scale": "demo",
        "batch_size": 64,
        "results": [
            {
                "workload": "figure3a",
                "engine": "ita",
                "mode": "batched",
                "storage": "columnar",
                "docs_per_sec": 9000.0,
            }
        ],
        "summary": {"figure3a_columnar_over_batched": 2.4},
    }
    entry = history_entry(bench_document, timestamp="2026-08-08T00:00:00+00:00")
    dashboard = render_perf_dashboard([entry], metrics=snapshot)
    print("\n=== 5. markdown dashboard (excerpt) ===")
    for line in dashboard.splitlines()[:16]:
        print(line)

    assert runtime.active is False, "observed() must restore the disabled state"
    print("\ndone: telemetry off again, hot path back to zero overhead")


if __name__ == "__main__":
    main()
