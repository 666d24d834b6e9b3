"""Tests for the machine-readable performance harness."""

import json
import os
import subprocess

import pytest

from repro.workloads import perfjson
from repro.workloads.cli import main
from repro.workloads.experiments import SCALES
from repro.workloads.generators import build_workload
from repro.workloads.perfjson import (
    QUERY_SCALE_VARIANTS,
    SCHEMA,
    SERVICE_OVERHEAD_MODES,
    SUMMARY,
    BenchRecord,
    default_suite,
    history_entry,
    read_history,
    run_bench_suite,
    run_cell,
)
from repro.workloads.runner import prepare_engine


def _cells(workload, scale="smoke"):
    return [cell for cell in default_suite(scale) if cell.workload == workload]


class TestSuiteDefinition:
    def test_covers_enough_workloads_and_engines(self):
        suite = default_suite("smoke")
        assert len({cell.workload for cell in suite}) >= 4
        assert len({cell.engine for cell in suite}) >= 3

    def test_rows_are_unique(self):
        suite = default_suite("smoke")
        assert len({cell.key for cell in suite}) == len(suite)

    def test_headline_workload_measures_every_ita_mode(self):
        modes = [
            (cell.mode, cell.storage)
            for cell in _cells("figure3a")
            if cell.engine == "ita"
        ]
        assert modes == [
            ("sequential", "bisect"),
            ("batched", "bisect"),
            ("wal", "bisect"),
            ("wal-recovery", "bisect"),
            ("batched", "columnar"),
            ("instrumented", "columnar"),
        ]

    def test_every_row_resolves_its_point(self):
        """_point_by_label falls back to the last point; no row may."""
        labels = {
            "figure3a": "n=10",
            "figure3b": "N=100",
            "ablation-queries": "Q=40",
            "cluster-scaling": "shards=4",
        }
        for cell in default_suite("smoke"):
            assert cell.point.label == labels[cell.workload]

    def test_cluster_workload_measures_the_async_lane_and_the_proc_cluster(self):
        modes = {(cell.engine, cell.mode) for cell in _cells("cluster-scaling")}
        assert ("sharded-ita", "async") in modes
        assert ("sharded-proc", "proc") in modes

    def test_rejects_non_positive_repeats(self):
        cell = default_suite("smoke")[0]
        with pytest.raises(ValueError):
            run_cell(cell, build_workload(cell.point.config), repeats=0)


class TestSummaryTable:
    """The failure mode the old if-chain hid: a mistyped key drops a ratio."""

    @pytest.mark.parametrize("scale", sorted(SCALES))
    def test_every_row_names_cells_the_suite_produces(self, scale):
        produced = {cell.key for cell in default_suite(scale)}
        produced |= {
            ("service-overhead", "ita", mode, "bisect")
            for mode in SERVICE_OVERHEAD_MODES
        }
        produced |= {
            ("query-scale", "ita", mode, storage)
            for mode, storage, _largest in QUERY_SCALE_VARIANTS
        }
        for name, numerator, denominator, field, note in SUMMARY:
            assert numerator in produced, name
            assert denominator is None or denominator in produced, name
            assert field in BenchRecord.__dataclass_fields__ or hasattr(
                BenchRecord, field
            ), name
            assert note, name

    def test_names_are_unique(self):
        names = [row[0] for row in SUMMARY]
        assert len(set(names)) == len(names)


class TestRunCell:
    def test_records_have_consistent_metrics(self):
        cells = _cells("figure3a")
        workload = build_workload(cells[0].point.config)
        records = [run_cell(cell, workload, batch_size=8) for cell in cells]
        assert [record.key for record in records] == [cell.key for cell in cells]
        for record in records:
            assert isinstance(record, BenchRecord)
            assert record.events == cells[0].point.config.measured_events
            assert record.docs_per_sec == pytest.approx(1000.0 / record.mean_ms)
            assert record.batch_size == (None if record.mode == "sequential" else 8)
            assert record.concurrency is None

    def test_cells_run_the_storage_their_key_names(self, monkeypatch):
        """The service default is "columnar"; a harness cell keyed "bisect"
        must still build the paper-faithful engine, or every ratio against
        it would compare columnar with itself."""
        built = []

        def recording(name, point, workload):
            built.append(prepare_engine(name, point, workload))
            return built[-1]

        monkeypatch.setattr(perfjson, "prepare_engine", recording)
        batched = [
            cell
            for workload in ("figure3a", "cluster-scaling")
            for cell in _cells(workload)
            if cell.mode == "batched"
        ]
        assert sorted(cell.storage for cell in batched) == ["bisect", "bisect", "columnar"]
        for cell in batched:
            run_cell(cell, build_workload(cell.point.config), batch_size=8)
            engines = getattr(built[-1], "shards", [built[-1]])
            assert [engine.index.backend.name for engine in engines] == (
                [cell.storage] * len(engines)
            )

    def test_async_mode_measures_the_one_lane(self):
        [cell] = [cell for cell in _cells("cluster-scaling") if cell.mode == "async"]
        record = run_cell(cell, build_workload(cell.point.config), batch_size=8)
        assert record.concurrency is None
        assert record.batch_size == 8
        assert record.docs_per_sec > 0.0
        assert record.scores_per_event > 0.0

    def test_proc_cell_runs_at_the_shard_count_it_is_compared_at(self):
        """cluster_proc_over_batched divides like by like: same shards,
        placement and calibration, hence the same scoring work."""
        cluster = _cells("cluster-scaling")
        workload = build_workload(cluster[0].point.config)
        by_mode = {
            cell.mode: run_cell(cell, workload, batch_size=8)
            for cell in cluster
            if cell.mode in ("batched", "proc")
        }
        proc, batched = by_mode["proc"], by_mode["batched"]
        assert proc.engine == "sharded-proc"
        assert proc.concurrency == 4
        assert proc.batch_size == 8
        assert proc.docs_per_sec > 0.0
        assert proc.scores_per_event == batched.scores_per_event > 0.0


class TestRunBenchSuite:
    def test_smoke_suite_document_shape(self):
        # queries_max=10_000 keeps the query-scale cells to the small
        # count (the 100k cell is CI's perf-smoke job's business).
        document = run_bench_suite(scale="smoke", repeats=1, queries_max=10_000)
        assert document["schema"] == SCHEMA
        assert document["scale"] == "smoke"
        assert document["queries_max"] == 10_000
        assert len(document["workloads"]) >= 4
        assert len(document["engines"]) >= 3
        # every summary row was measured, and nothing else is published
        assert list(document["summary"]) == [row[0] for row in SUMMARY]
        assert document["summary"]["queries_dedup_bytes_ratio_at"] == 10_000
        assert document["summary"]["queries_dedup_bytes_ratio"] > 1.0
        for record in document["results"]:
            assert record["events"] > 0
            assert record["docs_per_sec"] > 0.0
            assert record["mean_ms"] > 0.0
            assert record["p99_ms"] >= record["p50_ms"] >= 0.0
            assert record["mode"] in (
                "sequential", "batched", "instrumented", "async", "proc",
                "wal", "wal-recovery", "direct", "facade",
                "dedup-off", "dedup-on",
            )
            if record["mode"] == "proc":
                assert record["concurrency"] == 4
            else:
                assert record["concurrency"] is None
            if record["workload"] == "query-scale":
                assert record["subscriptions"] == 10_000
                assert record["bytes_per_query"] > 0.0
            else:
                assert record["subscriptions"] is None
                assert record["bytes_per_query"] is None
        # The document must survive a JSON round-trip unchanged.
        assert json.loads(json.dumps(document)) == document

    def test_queries_max_zero_skips_the_workload(self):
        document = run_bench_suite(scale="smoke", repeats=1, queries_max=0)
        assert "query-scale" not in document["workloads"]
        assert all(r["workload"] != "query-scale" for r in document["results"])
        assert set(document["summary"]) == {
            name for name, numerator, *_ in SUMMARY if numerator[0] != "query-scale"
        }


class TestCLI:
    def test_bench_all_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_results.json"
        history = tmp_path / "history"
        code = main(
            ["bench-all", "--scale", "smoke", "--quiet", "--repeats", "1",
             "--queries-max", "0", "--out", str(out),
             "--history-dir", str(history)]
        )
        assert code == 0
        # the trajectory entry lands in the directory given, nowhere else
        [entry] = read_history(history)
        assert entry["scale"] == "smoke"
        assert entry["cpu_count"] == os.cpu_count()
        assert "git_sha" in entry
        document = json.loads(out.read_text())
        assert document["schema"] == SCHEMA
        assert len(document["workloads"]) >= 4
        assert len(document["engines"]) >= 3
        printed = capsys.readouterr().out
        assert "figure3a_ita_wal_over_batched" in printed

    def test_bench_all_rejects_negative_queries_max(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["bench-all", "--scale", "smoke", "--quiet",
                 "--queries-max", "-1", "--out", str(tmp_path / "out.json"),
                 "--history-dir", str(tmp_path / "history")]
            )


class TestHistoryEntry:
    def test_entry_is_attributable_to_a_host_and_a_commit(self):
        """A thread/process ratio without a core count is uninterpretable,
        and a trend line without a commit cannot be bisected."""
        entry = history_entry({"scale": "smoke", "results": [], "summary": {}})
        assert entry["cpu_count"] == os.cpu_count()
        try:
            checkout = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=os.path.dirname(__file__), capture_output=True, text=True,
            )
            expected = checkout.stdout.strip() if checkout.returncode == 0 else None
        except OSError:  # no git on this host
            expected = None
        assert entry["git_sha"] == expected
