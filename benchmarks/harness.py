"""The unified benchmark harness.

One entry point for the whole performance story of the repository: it runs
the machine-readable suite of :mod:`repro.workloads.perfjson` -- the
figure-3(a)/3(b) settings, the query-count ablation, the sharded-cluster
scale-out workload and the service-façade overhead check, each across
several engine kinds and the sequential, batched and async-lane
processing modes (the proc cells at one and at several worker processes
fill the document's ``concurrency`` column) -- and emits
``BENCH_results.json``.

Three ways to run it:

* the CLI (the canonical one; this is what CI's perf-smoke job runs and
  what produced the committed ``BENCH_results.json``)::

      python -m repro.workloads.cli bench-all --out BENCH_results.json

* directly, which forwards to the same code::

      python benchmarks/harness.py --scale smoke --out BENCH_results.json

* under pytest (``pytest benchmarks/harness.py``; CI's perf-smoke job
  runs it), where ``test_harness_emits_valid_document`` is the
  structural check: the emitted document must cover at least four
  workloads and three engine kinds, carry both ITA modes on the headline
  figure-3a workload, keep p99 >= p50, and round-trip through JSON.  The
  same invariants are asserted by ``tests/workloads/test_perfjson.py``
  in the tier-1 suite.

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

from repro.workloads.perfjson import run_bench_suite             # noqa: E402


def bench_scale() -> str:
    """The workload scale used by the benchmark suite.

    Mirrors ``benchmarks/conftest.py`` without importing it, so the
    direct ``python benchmarks/harness.py`` invocation works from any
    working directory (the ``benchmarks`` package itself is only
    importable when the repo root is on the path, e.g. under pytest).
    """
    return os.environ.get("REPRO_BENCH_SCALE", "smoke")


def test_harness_emits_valid_document():
    """The smoke-scale suite must produce a structurally complete artifact."""
    document = run_bench_suite(scale="smoke", repeats=1)

    assert document["schema"].startswith("repro-bench/")
    assert len(document["workloads"]) >= 4, document["workloads"]
    assert len(document["engines"]) >= 3, document["engines"]

    records = document["results"]
    assert records, "suite produced no measurements"
    for record in records:
        assert record["events"] > 0
        assert record["docs_per_sec"] > 0.0
        assert record["mean_ms"] > 0.0
        assert record["p99_ms"] >= record["p50_ms"] >= 0.0
        assert record["mode"] in (
            "sequential",
            "batched",
            "instrumented",
            "async",
            "proc",
            "wal",
            "wal-recovery",
            "direct",
            "facade",
            "dedup-off",
            "dedup-on",
        )
        # The concurrency column is exactly the proc mode's worker count.
        if record["mode"] == "proc":
            assert record["concurrency"] >= 1
        else:
            assert record["concurrency"] is None

    # The cluster workload carries the one async cell -- the off-loop
    # worker lane -- and its ratio to the synchronous batched loop.
    [async_cell] = [
        record
        for record in records
        if record["workload"] == "cluster-scaling" and record["mode"] == "async"
    ]
    assert async_cell["engine"] == "sharded-ita"
    assert "cluster_async_over_batched" in document["summary"]

    # The headline workload carries both ITA modes.
    figure3a_modes = {
        record["mode"]
        for record in records
        if record["workload"] == "figure3a" and record["engine"] == "ita"
    }
    assert figure3a_modes == {
        "sequential", "batched", "instrumented", "wal", "wal-recovery"
    }
    assert "figure3a_ita_wal_over_batched" in document["summary"]
    assert "figure3a_wal_recovery_ms" in document["summary"]

    # The document must survive a JSON round-trip unchanged.
    assert json.loads(json.dumps(document)) == document


def main(argv=None) -> int:
    """Forward to the canonical CLI entry point."""
    import argparse

    from repro.workloads.cli import main as cli_main

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default=bench_scale())
    parser.add_argument("--out", default="BENCH_results.json")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
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
