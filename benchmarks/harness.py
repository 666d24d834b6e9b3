"""The unified benchmark harness.

One entry point for the whole performance story of the repository: it runs
the machine-readable suite of :mod:`repro.workloads.perfjson` -- the
figure-3(a)/3(b) settings, the query-count ablation, the sharded-cluster
workload (in process, through the async lane, and out of process), the
service-façade overhead check and the query-scale subscription cells --
emits ``BENCH_results.json``, and validates such a document.

Four ways to use it:

* the CLI (the canonical one; this is what CI's perf-smoke job runs and
  what produced the committed ``BENCH_results.json``)::

      python -m repro.workloads.cli bench-all --out BENCH_results.json

* directly, which forwards to the same code::

      python benchmarks/harness.py --scale smoke --out BENCH_results.json

* as the validator of an emitted document -- :func:`check_document`, the
  one list of structural checks and ratio gates (CI's perf-smoke job
  runs it on the artifact it uploads)::

      python benchmarks/harness.py --check BENCH_results.json

* under pytest (``pytest benchmarks/harness.py``), which runs the
  smoke-scale suite and hands the document to the same
  :func:`check_document`.

See ``docs/BENCHMARKING.md`` for the schema and for how to compare the
artifact against a previous run.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.workloads.perfjson import (                          # noqa: E402
    QUERY_SCALE_SUBSCRIPTIONS,
    run_bench_suite,
)

MODES = (
    "sequential", "batched", "instrumented", "async", "proc", "wal",
    "wal-recovery", "direct", "facade", "dedup-off", "dedup-on",
)


def bench_scale() -> str:
    """The workload scale used by the benchmark suite.

    Mirrors ``benchmarks/conftest.py`` without importing it, so the
    direct ``python benchmarks/harness.py`` invocation works from any
    working directory (the ``benchmarks`` package itself is only
    importable when the repo root is on the path, e.g. under pytest).
    """
    return os.environ.get("REPRO_BENCH_SCALE", "smoke")


def check_document(document) -> None:
    """Assert ``document`` is a structurally complete, in-bounds artifact.

    The single list of checks on a ``bench-all`` document: CI's perf-smoke
    job runs it (``--check``) on the artifact it uploads, the pytest
    self-check below on a fresh smoke run.  The ratio gates are the loose
    CI floors; the strict 1.05 telemetry budget is enforced by the
    noise-hardened tier-1 test (``tests/observability/test_overhead.py``).
    """
    summary = document["summary"]
    assert document["schema"].startswith("repro-bench/")
    assert len(document["workloads"]) >= 4, document["workloads"]
    assert len(document["engines"]) >= 3, document["engines"]

    records = document["results"]
    assert records, "suite produced no measurements"
    for record in records:
        assert record["events"] > 0, record
        assert record["docs_per_sec"] > 0.0, record
        assert record["mean_ms"] > 0.0, record
        assert record["p99_ms"] >= record["p50_ms"] >= 0.0, record
        assert record["mode"] in MODES, record
        # The concurrency column is exactly the proc mode's worker count.
        assert (record["concurrency"] is not None) == (record["mode"] == "proc"), record

    def rows(**columns):
        return [
            record
            for record in records
            if all(record[name] == value for name, value in columns.items())
        ]

    # The cluster workload carries the one async cell -- the off-loop
    # worker lane -- and the one out-of-process cell, each with its ratio
    # to the synchronous batched loop (recorded, not gated: the lane is
    # ~1.0 by design and the proc ratio is a property of the core count).
    [async_cell] = rows(mode="async")
    assert (async_cell["workload"], async_cell["engine"]) == ("cluster-scaling", "sharded-ita")
    assert "cluster_async_over_batched" in summary
    [proc_cell] = rows(mode="proc")
    assert proc_cell["concurrency"] >= 1, proc_cell
    assert "cluster_proc_over_batched" in summary

    # The headline workload carries every ITA mode, the durability pair
    # included, and the columnar twin of the batched cell.
    assert {record["mode"] for record in rows(workload="figure3a", engine="ita")} == {
        "sequential", "batched", "instrumented", "wal", "wal-recovery",
    }
    assert "figure3a_ita_wal_over_batched" in summary
    assert "figure3a_wal_recovery_ms" in summary
    assert rows(workload="figure3a", storage="columnar"), "no columnar figure-3a cell"
    speedup = summary["figure3a_columnar_over_batched"]
    assert speedup >= 2.0, f"columnar over batched-bisect {speedup} fell below the 2x floor"
    overhead = summary["figure3a_ita_instrumented_over_batched"]
    assert overhead <= 1.25, f"telemetry overhead {overhead} > 1.25"

    # The query-scale cells (absent under --queries-max 0): every count up
    # to queries_max measured, the memory column populated, and the dedup
    # ratio -- taken at the largest count measured both ways -- at or
    # above the documented 3x floor.
    cells = rows(workload="query-scale")
    if cells:
        counts = [c for c in QUERY_SCALE_SUBSCRIPTIONS if c <= document["queries_max"]]
        assert sorted({record["subscriptions"] for record in cells}) == counts
        assert all(record["bytes_per_query"] > 0 for record in cells), cells
        at = summary["queries_dedup_bytes_ratio_at"]
        assert at == min(counts[-1], 100_000), at
        ratio = summary["queries_dedup_bytes_ratio"]
        assert ratio >= 3.0, f"dedup bytes ratio {ratio} at {at} fell below the 3x floor"

    # The document must survive a JSON round-trip unchanged.
    assert json.loads(json.dumps(document)) == document


def test_harness_emits_valid_document():
    """The smoke-scale suite must produce a structurally complete artifact."""
    check_document(run_bench_suite(scale="smoke", repeats=1))


def main(argv=None) -> int:
    """Forward to the canonical CLI entry point."""
    import argparse

    from repro.workloads.cli import main as cli_main

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default=bench_scale())
    parser.add_argument("--out", default="BENCH_results.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--check",
        metavar="FILE",
        help="validate an emitted document with check_document instead of running the suite",
    )
    args = parser.parse_args(argv)
    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            document = json.load(handle)
        check_document(document)
        print("ok:", document["summary"])
        return 0
    return cli_main(
        [
            "bench-all",
            "--scale",
            args.scale,
            "--out",
            args.out,
            "--repeats",
            str(args.repeats),
        ]
    )


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
