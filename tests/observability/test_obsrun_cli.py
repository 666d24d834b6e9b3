"""The ``obs`` CLI workload, the bench history trajectory, the dashboard."""

from __future__ import annotations

import json

from repro.observability import runtime
from repro.workloads.cli import main
from repro.workloads.obsrun import REQUIRED_FAMILIES, run_observed_workload
from repro.workloads.perfjson import (
    HISTORY_FILENAME,
    append_history,
    history_entry,
    read_history,
)
from repro.workloads.reporting import render_perf_dashboard

_BENCH_DOC = {
    "schema": "repro-bench/8",
    "scale": "smoke",
    "batch_size": 64,
    "results": [
        {
            "workload": "figure3a",
            "engine": "ita",
            "mode": "batched",
            "storage": "bisect",
            "docs_per_sec": 9000.0,
        },
        {
            "workload": "figure3a",
            "engine": "ita",
            "mode": "batched",
            "storage": "columnar",
            "docs_per_sec": 21000.0,
        },
    ],
    "summary": {
        "figure3a_columnar_over_batched": 1.3,
        "figure3a_ita_batched_over_naive_kmax": 1.02,
    },
}


# --------------------------------------------------------------------------- #
# the obs workload
# --------------------------------------------------------------------------- #
def test_obs_workload_exposes_every_required_family() -> None:
    out = run_observed_workload(documents=96)
    for family in REQUIRED_FAMILIES:
        assert family in out["prometheus"], family
    trace = json.loads(out["chrome_trace"])
    assert trace["traceEvents"], "the instrumented run must record spans"
    assert set(out["durable"]["recovery_phase_ms"]) == {
        "manifest",
        "checkpoint_load",
        "restore",
        "replay",
    }
    assert out["async"]["events"] >= 96
    # The observed scope must not leak.
    assert runtime.active is False


def test_obs_cli_prometheus_and_trace(tmp_path, capsys) -> None:
    trace_path = tmp_path / "trace.json"
    assert main(["obs", "--quiet", "--trace-out", str(trace_path)]) == 0
    printed = capsys.readouterr().out
    for family in REQUIRED_FAMILIES:
        assert family in printed, family
    assert json.loads(trace_path.read_text())["traceEvents"]


def test_obs_cli_json_format(capsys) -> None:
    assert main(["obs", "--quiet", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert "repro_service_ingest_ms" in document["snapshot"]["families"]
    assert "repro_pipeline_events_total" in document["snapshot"]["collected"]


# --------------------------------------------------------------------------- #
# the bench history trajectory
# --------------------------------------------------------------------------- #
def test_history_entry_condenses_the_document() -> None:
    entry = history_entry(_BENCH_DOC, timestamp="2026-08-08T00:00:00+00:00")
    assert entry["ts"] == "2026-08-08T00:00:00+00:00"
    assert entry["schema"] == "repro-bench/8"
    assert entry["docs_per_sec"] == {
        "figure3a/ita/batched": 9000.0,
        "figure3a/ita/batched+columnar": 21000.0,
    }
    assert entry["summary"]["figure3a_ita_batched_over_naive_kmax"] == 1.02


def test_append_and_read_history_roundtrip(tmp_path) -> None:
    path = append_history(_BENCH_DOC, tmp_path, timestamp="2026-08-08T00:00:00+00:00")
    append_history(_BENCH_DOC, tmp_path, timestamp="2026-08-08T01:00:00+00:00")
    assert path.name == HISTORY_FILENAME
    entries = read_history(tmp_path)
    assert [entry["ts"] for entry in entries] == [
        "2026-08-08T00:00:00+00:00",
        "2026-08-08T01:00:00+00:00",
    ]


def test_read_history_of_missing_directory_is_empty(tmp_path) -> None:
    assert read_history(tmp_path / "nowhere") == []


def test_read_history_rejects_malformed_lines(tmp_path) -> None:
    (tmp_path / HISTORY_FILENAME).write_text('{"ts": "x"}\nnot json\n')
    import pytest

    with pytest.raises(ValueError, match=":2:"):
        read_history(tmp_path)


# --------------------------------------------------------------------------- #
# the markdown dashboard
# --------------------------------------------------------------------------- #
def test_dashboard_renders_trend_and_throughput() -> None:
    older = history_entry(_BENCH_DOC, timestamp="2026-08-01T00:00:00+00:00")
    newer = history_entry(_BENCH_DOC, timestamp="2026-08-08T00:00:00+00:00")
    newer["summary"]["figure3a_columnar_over_batched"] = 1.43
    text = render_perf_dashboard([older, newer])
    assert text.startswith("# Performance dashboard")
    assert "## Headline ratios" in text
    assert "## Trend" in text
    assert "`figure3a_ita_batched_over_naive_kmax` | 1.0200" in text
    assert "+10.0%" in text  # 1.3 -> 1.43
    assert "`figure3a/ita/batched` | 9,000" in text


def test_dashboard_renders_metrics_section() -> None:
    with runtime.observed() as registry:
        registry.counter("repro_demo_total", "demo").inc(3)
        registry.histogram("repro_demo_ms", "demo").observe(2.0)
        snapshot = registry.snapshot()
    entry = history_entry(_BENCH_DOC, timestamp="2026-08-08T00:00:00+00:00")
    text = render_perf_dashboard([entry], metrics=snapshot)
    assert "## Telemetry snapshot" in text
    assert "`repro_demo_total`" in text
    assert "count=1" in text


def test_dashboard_handles_empty_history() -> None:
    text = render_perf_dashboard([])
    assert "No benchmark history yet" in text
