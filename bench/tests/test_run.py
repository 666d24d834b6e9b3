"""The command end to end, at --quick sizes: contract, checks, hygiene."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import metrics
import workloads

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAMES = [workload.name for workload in workloads.WORKLOADS]


def _run(workload, trace, cwd=REPO_ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5", "--seconds", "0.5",
         "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_line(completed):
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [(w.name, w.why) for w in workloads.WORKLOADS]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    assert all("Closed loop, 1 caller" in w["why"] for w in CONTRACT["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in CONTRACT["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    setup = metrics.bounds()["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower") and setup.bound == max(m.bound for m in metrics.END_TO_END)


def test_every_run_times_a_thousand_calls():
    for workload in workloads.WORKLOADS:
        assert workload.block_calls * workload.prefix_blocks >= 1000
        # a block's 99th percentile must not be its maximum
        assert workload.block_calls >= 100


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 0.50) == 50.0
    assert harness.percentile(values, 0.99) == 99.0  # the second largest of 100, not the largest
    assert harness.percentile([7.0], 0.99) == 7.0


def test_reported_timings_are_relative_to_the_calibration():
    quiet = harness.Timed(2.0, harness.REFERENCE_SECONDS)
    disturbed = harness.Timed(3.0, harness.REFERENCE_SECONDS * 1.5)  # host and program both 1.5x slower
    assert quiet.reported == pytest.approx(2.0)
    assert disturbed.reported == pytest.approx(2.0)
    blocks = [
        harness.Block(wall=timed.seconds, cpu=0.0, documents=100, ingest_p50=timed.seconds / 100,
                      ingest_p99=timed.seconds / 50, alert_p50=timed.seconds / 90, alert_p99=timed.seconds / 40, subscribe_p50=None,
                      calibration=timed.calibration)
        for timed in (quiet, disturbed, disturbed)
    ]
    setups = [(quiet, [quiet, disturbed, disturbed])]
    reported = harness._end_to_end(blocks[:1] + blocks, setups, [disturbed], 10.0, reported=True)
    measured = harness._end_to_end(blocks, setups, [disturbed], 10.0, reported=False)
    assert reported["docs_per_s"] == pytest.approx(50.0) and measured["docs_per_s"] == pytest.approx(100 / 3.0)
    assert reported["recover_s"] == pytest.approx(2.0) and measured["recover_s"] == pytest.approx(3.0)
    # no block subscribed, so the latency is that of the groups of subscriptions of the set-ups
    assert reported["subscribe_p50_ms"] == pytest.approx(2000.0) and measured["subscribe_p50_ms"] == pytest.approx(3000.0)
    assert reported["peak_rss_mb"] == measured["peak_rss_mb"] == 10.0


@pytest.mark.parametrize("workload", NAMES)
def test_both_runs_of_a_workload(workload):
    untraced = _run(workload, 0)
    assert untraced.returncode == 0, untraced.stderr
    result = _last_line(untraced)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in metrics.END_TO_END]
    for metric in metrics.END_TO_END:
        assert result["metrics"][metric.name]["unit"] == metric.unit
        assert result["metrics"][metric.name]["value"] > 0, f"{metric.name} must never be 0"
        assert f"{metric.name} " in untraced.stdout  # printed by name, with its unit, for people too
    record = json.loads((BENCH_DIR / "out" / f"run-{workload}-seed5-untraced.json").read_text())
    assert "self_time_share" not in record, "no span is recorded in the untraced run"
    assert {"git_sha", "cpu_count", "python"} <= set(record["env"]) and record["seed"] == 5 and record["sizes"]

    traced = _run(workload, 1)
    assert traced.returncode == 0, traced.stderr
    layers = _last_line(traced)
    assert layers["correct"] is True
    assert list(layers["metrics"]) == [m.name for m in metrics.PER_LAYER]
    assert layers["metrics"]["bench.attributed_share"]["value"] >= 0.9
    assert layers["metrics"]["bench.attributed_share"]["value"] <= 1.0 + 1e-9
    traced_record = json.loads((BENCH_DIR / "out" / f"run-{workload}-seed5-traced.json").read_text())
    # identical inputs in both runs, and the waterfall's parts are the whole
    assert traced_record["inputs_sha256"] == record["inputs_sha256"]
    assert abs(sum(traced_record["self_time_share"].values()) - layers["metrics"]["bench.attributed_share"]["value"]) < 1e-9
    assert (BENCH_DIR / "out" / f"trace-{workload}.json").is_file()

    # hygiene: nothing left behind, in the scratch directory or as a process
    assert not any((BENCH_DIR / "out" / "tmp").iterdir())
    survivors = subprocess.run(["pgrep", "-f", "repro-shard"], capture_output=True, text=True)
    assert survivors.stdout.strip() == ""


def test_counts_repeat_exactly():
    first = _last_line(_run("bulk_durable", 1))["metrics"]
    second = _last_line(_run("bulk_durable", 1))["metrics"]
    exact = [m.name for m in metrics.PER_LAYER if m.unit in ("count", "bytes/doc", "ratio") and not m.name.startswith("bench.")]
    exact = [name for name in exact if name not in ("service.ingest_calls", "text.vocab_size", "text.tokens_per_doc",
                                                    "documents.window_size", "cluster.shard_skew")]
    assert first["durability.wal_bytes_per_doc"]["value"] > 0
    assert {name: first[name]["value"] for name in exact} == {name: second[name]["value"] for name in exact}


def test_no_spans_without_tracing(monkeypatch):
    created = []
    real = harness.Recorder

    class Counting(real):
        def __init__(self):
            created.append(self)
            super().__init__()

    monkeypatch.setattr(harness, "Recorder", Counting)
    workload = workloads.BY_NAME["churn_mixed"]
    record = harness.run_workload(workload, seed=2, seconds=0.2, traced=False, quick=True)
    assert record["correct"] and created == []
    record = harness.run_workload(workload, seed=2, seconds=0.2, traced=True, quick=True)
    assert record["correct"] and len(created) == 1 and created[0].spans


def test_a_corrupted_service_answer_fails_the_run(monkeypatch):
    """error_rate > 0, and a non-zero exit, when the program answers wrongly."""
    real = harness._plain

    def corrupted(results):
        plain = real(results)
        victim = next(query_id for query_id, ranked in plain.items() if ranked)
        plain[victim] = plain[victim][1:]
        return plain

    monkeypatch.setattr(harness, "_plain", corrupted)
    record = harness.run_workload(workloads.BY_NAME["alerts_steady"], seed=2, seconds=0.2, traced=False, quick=True)
    assert record["failed"] >= 1 and record["correct"] is False


def test_a_call_that_raises_counts_as_failed(monkeypatch, capsys):
    real = harness.MonitoringService.ingest
    calls = []

    def flaky(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 520:  # past the three set-ups (100 each) and the warm-up (200)
            raise RuntimeError("injected")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(harness.MonitoringService, "ingest", flaky)
    record = harness.run_workload(workloads.BY_NAME["alerts_steady"], seed=2, seconds=0.2, traced=False, quick=True)
    assert record["failed"] >= 1 and record["correct"] is False
    assert "injected" in capsys.readouterr().err


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    bare = _run("alerts_steady", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert bare.returncode != 0
    assert not bare.stdout.strip().endswith("}")
