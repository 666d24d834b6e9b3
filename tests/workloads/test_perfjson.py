"""Tests for the machine-readable performance harness."""

import json
import os
import subprocess

import pytest

from repro.workloads.cli import main
from repro.workloads.perfjson import (
    SCHEMA,
    BenchRecord,
    default_suite,
    history_entry,
    read_history,
    run_bench_suite,
    run_case,
)


class TestSuiteDefinition:
    def test_covers_enough_workloads_and_engines(self):
        suite = default_suite("smoke")
        workloads = {case.workload for case in suite}
        engines = {name for case in suite for name in case.modes}
        assert len(workloads) >= 4
        assert len(engines) >= 3

    def test_headline_workload_measures_both_ita_modes(self):
        suite = default_suite("smoke")
        figure3a = next(case for case in suite if case.workload == "figure3a")
        assert tuple(figure3a.modes["ita"]) == (
            "sequential", "batched", "instrumented", "wal",
        )

    def test_every_case_resolves_a_point(self):
        for case in default_suite("smoke"):
            assert case.point in tuple(case.definition.points)

    def test_cluster_workload_measures_the_async_pipeline(self):
        suite = default_suite("smoke")
        cluster = next(case for case in suite if case.workload == "cluster-scaling")
        assert "async" in cluster.modes["sharded-ita"]

    def test_rejects_non_positive_repeats(self):
        case = default_suite("smoke")[0]
        with pytest.raises(ValueError):
            run_case(case, repeats=0)

    def test_rejects_non_positive_proc_workers(self):
        case = default_suite("smoke")[0]
        with pytest.raises(ValueError):
            run_case(case, proc_workers=0)

    def test_cluster_workload_measures_the_proc_cluster(self):
        suite = default_suite("smoke")
        cluster = next(case for case in suite if case.workload == "cluster-scaling")
        assert tuple(cluster.modes["sharded-proc"]) == ("proc",)


class TestRunCase:
    def test_records_have_consistent_metrics(self):
        case = default_suite("smoke")[0]
        records = run_case(case, batch_size=8, repeats=1)
        assert {record.mode for record in records} == {
            "sequential",
            "batched",
            "instrumented",
            "wal",
            "wal-recovery",
        }
        for record in records:
            assert isinstance(record, BenchRecord)
            assert record.workload == case.workload
            assert record.events == case.point.config.measured_events
            assert record.docs_per_sec == pytest.approx(1000.0 / record.mean_ms)
            if record.mode in ("batched", "instrumented", "wal", "wal-recovery"):
                assert record.batch_size == 8
            else:
                assert record.batch_size is None
            assert record.concurrency is None

    def test_async_mode_measures_the_one_lane(self):
        suite = default_suite("smoke")
        cluster = next(case for case in suite if case.workload == "cluster-scaling")
        records = run_case(cluster, batch_size=8, repeats=1)
        [record] = [record for record in records if record.mode == "async"]
        assert record.concurrency is None
        assert record.batch_size == 8
        assert record.docs_per_sec > 0.0
        assert record.scores_per_event > 0.0

    def test_proc_mode_measures_single_and_multi_worker(self):
        suite = default_suite("smoke")
        cluster = next(case for case in suite if case.workload == "cluster-scaling")
        records = run_case(cluster, batch_size=8, repeats=1, proc_workers=2)
        proc_records = [record for record in records if record.mode == "proc"]
        assert sorted(record.concurrency for record in proc_records) == [1, 2]
        for record in proc_records:
            assert record.engine == "sharded-proc"
            assert record.batch_size == 8
            assert record.docs_per_sec > 0.0
            assert record.scores_per_event > 0.0


class TestRunBenchSuite:
    def test_single_worker_only_run_omits_the_speedup_ratio(self):
        """--proc-workers 1 measures only the baseline cell; the summary
        must not fabricate a 1.0 self-ratio from it."""
        document = run_bench_suite(
            scale="smoke", repeats=1, proc_workers=1, queries_max=0,
        )
        async_cells = [r for r in document["results"] if r["mode"] == "async"]
        assert [r["concurrency"] for r in async_cells] == [None]
        assert "cluster_async_over_batched" in document["summary"]
        proc_cells = [r for r in document["results"] if r["mode"] == "proc"]
        assert [r["concurrency"] for r in proc_cells] == [1]
        assert "cluster_proc_multi_over_single" not in document["summary"]
        # The dispatch-tax ratio only needs the baseline cell, so it stays.
        assert "cluster_proc_over_batched" in document["summary"]

    def test_smoke_suite_document_shape(self):
        # queries_max=10_000 keeps the query-scale cells to the small
        # count (the 100k cell is CI's queryscale-smoke job's business).
        document = run_bench_suite(scale="smoke", repeats=1, queries_max=10_000)
        assert document["schema"] == SCHEMA
        assert document["scale"] == "smoke"
        assert document["queries_max"] == 10_000
        assert len(document["workloads"]) >= 4
        assert len(document["engines"]) >= 3
        # a bisect batch *is* the sequential path, so that ratio is retired
        assert "figure3a_ita_batched_over_sequential" not in document["summary"]
        assert "service_facade_over_direct" in document["summary"]
        # one async cell: the multi-over-single-worker ratio is retired
        assert "cluster_async_multi_over_single_worker" not in document["summary"]
        assert "async_workers" not in document
        assert "cluster_async_over_batched" in document["summary"]
        assert "figure3a_ita_wal_over_batched" in document["summary"]
        assert "figure3a_wal_recovery_ms" in document["summary"]
        assert "cluster_proc_multi_over_single" in document["summary"]
        assert document["summary"]["queries_dedup_bytes_ratio_at"] == 10_000
        assert document["summary"]["queries_dedup_bytes_ratio"] > 1.0
        assert "queries_dedup_throughput_ratio" in document["summary"]
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
                assert record["concurrency"] >= 1
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
        assert "queries_dedup_bytes_ratio" not in document["summary"]


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
