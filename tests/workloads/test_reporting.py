"""Tests for result rendering."""

import pytest

from repro.documents.corpus import SyntheticCorpusConfig
from repro.observability.opcounters import OperationCounters
from repro.observability.timing import PercentileSummary
from repro.workloads.experiments import ExperimentDefinition, SweepPoint
from repro.workloads.generators import WorkloadConfig
from repro.workloads.reporting import (
    format_result_table,
    format_speedup_summary,
    render_perf_dashboard,
    result_rows,
)
from repro.workloads.runner import EngineMeasurement, ExperimentResult, PointResult


def synthetic_result():
    """Build an ExperimentResult by hand (no engines involved)."""
    config = WorkloadConfig(
        num_queries=5, query_length=4, k=2, window_size=10, measured_events=5,
        corpus=SyntheticCorpusConfig(dictionary_size=100, seed=1), seed=1,
    )
    definition = ExperimentDefinition(
        experiment_id="fake",
        title="fake experiment",
        paper_reference="Figure X",
        x_axis="n",
        points=(
            SweepPoint(label="n=4", value=4, config=config),
            SweepPoint(label="n=8", value=8, config=config),
        ),
        engines=("ita", "naive-kmax"),
    )

    def measurement(name, mean, scores):
        counters = OperationCounters(scores_computed=scores)
        return EngineMeasurement(
            engine=name,
            mean_ms=mean,
            summary=PercentileSummary.from_samples([mean]),
            counters=counters,
            events=10,
        )

    result = ExperimentResult(definition=definition)
    result.points.append(
        PointResult(
            point=definition.points[0],
            measurements={
                "ita": measurement("ita", 0.5, 100),
                "naive-kmax": measurement("naive-kmax", 5.0, 2_000),
            },
        )
    )
    result.points.append(
        PointResult(
            point=definition.points[1],
            measurements={
                "ita": measurement("ita", 1.0, 200),
                "naive-kmax": measurement("naive-kmax", 6.0, 2_000),
            },
        )
    )
    return result


class TestResultRows:
    def test_one_row_per_point_with_speedups(self):
        rows = result_rows(synthetic_result())
        assert len(rows) == 2
        assert rows[0]["x"] == "n=4"
        assert rows[0]["ita_ms"] == 0.5
        assert rows[0]["speedup"] == pytest.approx(10.0)
        assert rows[1]["speedup"] == pytest.approx(6.0)

    def test_scores_per_event_included(self):
        rows = result_rows(synthetic_result())
        assert rows[0]["ita_scores_per_event"] == pytest.approx(10.0)
        assert rows[0]["naive-kmax_scores_per_event"] == pytest.approx(200.0)


class TestFormatting:
    def test_table_contains_labels_and_engines(self):
        table = format_result_table(synthetic_result())
        assert "Figure X" in table
        assert "n=4" in table and "n=8" in table
        assert "ita (ms)" in table and "naive-kmax (ms)" in table
        assert "10.0x" in table

    def test_speedup_summary_reports_range(self):
        summary = format_speedup_summary(synthetic_result())
        assert "6.0x" in summary and "10.0x" in summary
        assert "ita" in summary.lower()

    def test_speedup_summary_without_competitor(self):
        result = synthetic_result()
        ita_only = ExperimentResult(
            definition=ExperimentDefinition(
                experiment_id=result.definition.experiment_id,
                title=result.definition.title,
                paper_reference=result.definition.paper_reference,
                x_axis=result.definition.x_axis,
                points=result.definition.points,
                engines=("ita",),
            ),
            points=result.points,
        )
        assert "no ITA/competitor" in format_speedup_summary(ita_only)


class TestPerfDashboardTrend:
    """The trend compares runs at one scale only: ratios move with the
    scale as much as with the code (a `small` run diffed against a `smoke`
    run once reported a -33% "regression")."""

    @staticmethod
    def entry(ts, scale, value):
        return {
            "ts": ts,
            "schema": "repro-bench/8",
            "scale": scale,
            "summary": {"figure3a_columnar_over_batched": value},
            "docs_per_sec": {},
        }

    def test_mixed_history_trends_within_the_latest_scale(self):
        entries = [
            self.entry("2026-08-01", "smoke", 9000.0),
            self.entry("2026-08-02", "small", 5000.0),
            self.entry("2026-08-03", "smoke", 9900.0),
            self.entry("2026-08-04", "small", 5500.0),
        ]
        text = render_perf_dashboard(entries)
        assert "## Trend (first vs latest `small` run)" in text
        # 5000 -> 5500 within `small`; never 9000 -> 5500 across scales
        assert "| 5000.0000 | 5500.0000 | +10.0% |" in text
        assert "9000" not in text

    def test_no_trend_without_an_earlier_run_at_the_same_scale(self):
        entries = [
            self.entry("2026-08-01", "smoke", 9000.0),
            self.entry("2026-08-02", "smoke", 9900.0),
            self.entry("2026-08-03", "small", 5000.0),
        ]
        text = render_perf_dashboard(entries)
        assert "## Headline ratios" in text
        assert "## Trend" not in text
