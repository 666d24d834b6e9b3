"""compare.py on synthetic result files."""

import json

import compare
from metrics import bounds


def _result(values_by_workload):
    return {
        "workloads": [
            {"workload": workload, "untraced": [{"metrics": dict(zip(metrics, run))} for run in zip(*metrics.values())]}
            for workload, metrics in values_by_workload.items()
        ]
    }


def _steady(centre, n=10, wobble=0.002):
    return [centre * (1 + wobble * (i - n / 2) / n) for i in range(n)]


def _rows(base, candidate):
    return {(row.workload, row.metric.name): row for row in compare.compare(_result(base), _result(candidate))}


def test_ok_worse_and_unresolved():
    worse = 1 + bounds()["ingest_p50_ms"].bound + 0.05
    base = {"w": {"ingest_p50_ms": _steady(2.0), "docs_per_s": _steady(500.0), "setup_s": _steady(1.0)}}
    candidate = {
        "w": {
            "ingest_p50_ms": _steady(2.0 * worse),  # past the bound
            "docs_per_s": _steady(520.0),           # better
            "setup_s": [0.5, 0.7, 0.9, 1.0, 1.0, 1.1, 1.2, 1.4, 1.6, 1.8],  # spread far wider than the bound
        }
    }
    rows = _rows(base, candidate)
    assert rows["w", "ingest_p50_ms"].verdict == "worse"
    assert rows["w", "docs_per_s"].verdict == "ok"
    assert rows["w", "setup_s"].verdict == "unresolved"
    assert abs(rows["w", "ingest_p50_ms"].ratio - worse) < 0.01
    assert abs(rows["w", "ingest_p50_ms"].base.median - 2.0) < 0.01


def test_direction_of_higher_is_better():
    bound = bounds()["docs_per_s"].bound
    base = {"w": {"docs_per_s": _steady(500.0)}}
    assert _rows(base, {"w": {"docs_per_s": _steady(500.0 * (1 - bound - 0.02))}})["w", "docs_per_s"].verdict == "worse"
    assert _rows(base, {"w": {"docs_per_s": _steady(500.0 * (1 - bound + 0.02))}})["w", "docs_per_s"].verdict == "ok"
    assert _rows(base, {"w": {"docs_per_s": _steady(900.0)}})["w", "docs_per_s"].verdict == "ok"


def test_within_bound_is_ok_for_lower_is_better():
    bound = bounds()["ingest_p99_ms"].bound
    base = {"w": {"ingest_p99_ms": _steady(10.0)}}
    assert _rows(base, {"w": {"ingest_p99_ms": _steady(10.0 * (1 + bound - 0.01))}})["w", "ingest_p99_ms"].verdict == "ok"
    assert _rows(base, {"w": {"ingest_p99_ms": _steady(10.0 * (1 + bound + 0.01))}})["w", "ingest_p99_ms"].verdict == "worse"


def test_quartiles_are_statistics_quantiles():
    summary = compare.summarise([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (summary.q1, summary.median, summary.q3) == (2.75, 5.5, 8.25)
    assert abs(summary.spread - 1.0) < 1e-12


def test_exit_codes(tmp_path, capsys):
    def write(name, values):
        path = tmp_path / name
        path.write_text(json.dumps(_result(values)))
        return str(path)

    base = write("a.json", {"w": {"ingest_p50_ms": _steady(2.0)}})
    same = write("b.json", {"w": {"ingest_p50_ms": _steady(2.05)}})
    worse = write("c.json", {"w": {"ingest_p50_ms": _steady(3.0)}})
    noisy = write("d.json", {"w": {"ingest_p50_ms": [0.5, 1.0, 2.0, 2.5, 3.0, 4.0]}})
    assert compare.main([base, same]) == 0
    assert compare.main([base, worse]) == 1
    assert compare.main([base, noisy]) == 2
    output = capsys.readouterr().out
    assert "base (A)" in output and "worse" in output and "unresolved" in output
    assert compare.main([base]) == 64
