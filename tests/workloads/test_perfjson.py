"""Tests for the machine-readable performance harness."""

import copy
import json
import os

import pytest

from repro.exceptions import ExperimentError
from repro.workloads import perfjson
from repro.workloads.cli import main
from repro.workloads.experiments import SCALES, figure_3a
from repro.workloads.generators import build_workload
from repro.workloads.perfjson import (
    PROVENANCE,
    SCHEMA,
    SUMMARY,
    BenchRecord,
    check_document,
    default_suite,
    history_entry,
    point_by_label,
    read_history,
    run_bench_suite,
    run_cell,
)
from repro.workloads.runner import prepare_engine

#: the paper's comparison on one sweep point: (engine, mode, storage)
_PAPER_ROWS = [
    ("ita", "sequential", "bisect"),
    ("ita", "batched", "bisect"),
    ("naive", "sequential", "bisect"),
    ("naive-kmax", "sequential", "bisect"),
]
_SUITE = (
    [("figure3a",) + row for row in _PAPER_ROWS[:2] + [("ita", "batched", "columnar")] + _PAPER_ROWS[2:]]
    + [("figure3b",) + row for row in _PAPER_ROWS]
    + [("ablation-queries",) + row for row in _PAPER_ROWS]
)

#: what a smoke cell must read whatever the host: (workload, engine) ->
#: (point label, scores per event); every cell measures 30 events
_SMOKE_PINS = {
    ("figure3a", "ita"): ("n=10", 1.8333333333333333),
    ("figure3a", "naive"): ("n=10", 170.0),
    ("figure3a", "naive-kmax"): ("n=10", 20.0),
    ("figure3b", "ita"): ("N=100", 1.9),
    ("figure3b", "naive"): ("N=100", 93.33333333333333),
    ("figure3b", "naive-kmax"): ("N=100", 20.0),
    ("ablation-queries", "ita"): ("Q=40", 4.0),
    ("ablation-queries", "naive"): ("Q=40", 590.0),
    ("ablation-queries", "naive-kmax"): ("Q=40", 40.0),
}


@pytest.fixture(scope="module")
def smoke_document():
    return run_bench_suite(scale="smoke", repeats=1)


class TestSuiteDefinition:
    @pytest.mark.parametrize("scale", sorted(SCALES))
    def test_the_suite_is_the_thirteen_paper_rows(self, scale):
        suite = default_suite(scale)
        assert [(cell.workload, cell.engine, cell.mode, cell.storage) for cell in suite] == _SUITE
        assert len(set(_SUITE)) == len(_SUITE) == 13
        queries = 2 * int(SCALES[scale]["num_queries"])
        labels = {"figure3a": "n=10", "figure3b": "N=100", "ablation-queries": f"Q={queries}"}
        assert all(cell.point.label == labels[cell.workload] for cell in suite)

    def test_a_label_the_sweep_lacks_is_an_error_not_another_point(self):
        """It used to match by prefix and fall back to the last point, so a
        renamed label timed another cell under the asked-for key."""
        definition = figure_3a("smoke")
        assert point_by_label(definition, "n=10").value == 10
        for label in ("n=1", "n=11"):
            with pytest.raises(ExperimentError, match="known: n=4, n=10, n=20, n=30, n=40"):
                point_by_label(definition, label)

    def test_rejects_non_positive_repeats(self):
        cell = default_suite("smoke")[0]
        with pytest.raises(ValueError):
            run_cell(cell, build_workload(cell.point.config), repeats=0)


class TestSummaryTable:
    """The failure mode the old if-chain hid: a mistyped key drops a ratio."""

    @pytest.mark.parametrize("scale", sorted(SCALES))
    def test_every_row_names_cells_the_suite_produces(self, scale):
        produced = {cell.key for cell in default_suite(scale)}
        for name, numerator, denominator, field, note in SUMMARY:
            assert numerator in produced, name
            assert denominator in produced, name
            assert field in BenchRecord.__dataclass_fields__, name
            assert note, name

    def test_the_table_is_the_two_paper_ratios(self):
        assert [row[0] for row in SUMMARY] == [
            "figure3a_ita_batched_over_naive_kmax",
            "figure3a_columnar_over_batched",
        ]


class TestRunCell:
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
            for cell in default_suite("smoke")
            if cell.workload == "figure3a" and cell.mode == "batched"
        ]
        assert [cell.storage for cell in batched] == ["bisect", "columnar"]
        workload = build_workload(batched[0].point.config)
        for cell in batched:
            record = run_cell(cell, workload, batch_size=8)
            assert record.key == cell.key
            assert record.batch_size == 8
            assert record.docs_per_sec == pytest.approx(1000.0 / record.mean_ms)
            assert built[-1].index.backend.name == cell.storage


class TestDocument:
    def test_smoke_document_is_valid_and_stamped(self, smoke_document):
        """The structural self-check nothing used to collect."""
        check_document(smoke_document)
        assert smoke_document["schema"] == SCHEMA
        assert [smoke_document[name] for name in ("scale", "batch_size", "repeats")] == [
            "smoke", 64, 1,
        ]
        assert smoke_document["cpu_count"] == os.cpu_count()
        assert list(smoke_document["summary"]) == [row[0] for row in SUMMARY]

    def test_deterministic_columns_are_pinned(self, smoke_document):
        for record in smoke_document["results"]:
            label, scores = _SMOKE_PINS[record["workload"], record["engine"]]
            assert (record["point"], record["events"]) == (label, 30), record
            assert record["scores_per_event"] == scores, record
            assert record["batch_size"] == (None if record["mode"] == "sequential" else 64)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda doc: doc.update(schema="repro-bench/7"), "schema"),
            (lambda doc: doc.pop("git_sha"), "git_sha"),
            (lambda doc: doc["results"].pop(), "cells are"),
            (lambda doc: doc["results"][0].update(events=0), "nothing measured"),
            (lambda doc: doc["summary"].popitem(), "summary keys"),
        ],
    )
    def test_check_document_names_what_is_wrong(self, smoke_document, damage, message):
        document = copy.deepcopy(smoke_document)
        damage(document)
        with pytest.raises(ExperimentError, match=message):
            check_document(document)


class TestCLI:
    def test_bench_all_writes_document_history_and_dashboard(self, tmp_path, capsys):
        out, history, dashboard = tmp_path / "b.json", tmp_path / "history", tmp_path / "d.md"
        arguments = ["bench-all", "--scale", "smoke", "--quiet", "--repeats", "1", "--out", str(out),
                     "--history-dir", str(history), "--output", str(dashboard)]
        assert main(arguments) == 0
        document = json.loads(out.read_text())
        check_document(document)
        # the trajectory entry lands in the directory given, nowhere else
        [entry] = read_history(history)
        assert [entry[name] for name in PROVENANCE] == [document[name] for name in PROVENANCE]
        assert "figure3a_columnar_over_batched" in capsys.readouterr().out
        assert f"commit `{document['git_sha'] or '?'}`" in dashboard.read_text()
        # the reporter alone renders the same history
        dashboard.unlink()
        assert main(["report", "--history-dir", str(history), "--output", str(dashboard)]) == 0
        assert "## Headline ratios" in dashboard.read_text()

    def test_an_invalid_document_is_not_written(self, tmp_path, monkeypatch, smoke_document):
        broken = copy.deepcopy(smoke_document)
        del broken["results"][2]
        monkeypatch.setattr("repro.workloads.cli.run_bench_suite", lambda **_: broken)
        with pytest.raises(ExperimentError):
            main(["bench-all", "--scale", "smoke", "--quiet", "--out", str(tmp_path / "b.json"),
                  "--history-dir", str(tmp_path / "history"), "--output", str(tmp_path / "d.md")])
        assert list(tmp_path.iterdir()) == []


class TestHistoryEntry:
    def test_entry_describes_the_run_not_the_reader(self):
        """CI condensed one runner's document on another runner, and the
        dashboard attributed its throughput to the wrong core count."""
        stamp = {"scale": "small", "batch_size": 64, "repeats": 3, "python": "3.9.0",
                 "platform": "elsewhere", "cpu_count": 64, "git_sha": "feedbee"}
        entry = history_entry({**stamp, "results": [], "summary": {}})
        assert {name: entry[name] for name in PROVENANCE} == stamp
