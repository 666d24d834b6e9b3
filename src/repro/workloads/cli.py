"""Command-line entry point for the experiment harness.

Examples
--------
Run the reproduction of Figure 3(a) at the default (small) scale::

    python -m repro.workloads.cli figure3a

Run every experiment at smoke scale and write the tables to a file::

    python -m repro.workloads.cli all --scale smoke --output results.txt

Run the machine-readable performance harness: measure the paper's cells,
validate the document, write it, append the history line and render the
dashboard (see ``docs/BENCHMARKING.md`` for the schema and comparison
recipe); ``report`` re-renders the dashboard from the history alone::

    python -m repro.workloads.cli bench-all --out BENCH_results.json
    python -m repro.workloads.cli report --metrics obs.json --output PERF_dashboard.md

Run an instrumented workload and print its Prometheus exposition (see
``docs/OBSERVABILITY.md`` for the metric catalog)::

    python -m repro.workloads.cli obs
    python -m repro.workloads.cli obs --format json --trace-out trace.json

Serve a monitoring service over TCP for remote clients (see
``docs/ARCHITECTURE.md``, "The network tier"; stop it with SIGTERM or
Ctrl-C -- both drain in-flight requests and flush state before exiting)::

    python -m repro.workloads.cli serve --engine sharded-proc-2 --port 9911

List the available experiments::

    python -m repro.workloads.cli list
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.workloads.experiments import SCALES, ExperimentDefinition, all_experiments
from repro.workloads.perfjson import (
    DEFAULT_BATCH_SIZE,
    append_history,
    check_document,
    read_history,
    run_bench_suite,
)
from repro.workloads.reporting import (
    format_result_table,
    format_speedup_summary,
    render_perf_dashboard,
)
from repro.workloads.runner import run_experiment

__all__ = ["main", "build_parser"]


def _definitions(scale: str) -> Dict[str, ExperimentDefinition]:
    """Every experiment of the reproduction at ``scale``, by its CLI name."""
    return {definition.experiment_id: definition for definition in all_experiments(scale)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the evaluation of 'An Incremental Threshold Method for "
            "Continuous Text Search Queries' (ICDE 2009)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_definitions("smoke"))
        + ["all", "bench-all", "report", "obs", "serve", "list"],
        help=(
            "which experiment to run ('all' for every one, 'bench-all' for the "
            "machine-readable performance harness, 'report' to render the perf "
            "dashboard from the bench history, 'obs' for an instrumented "
            "workload exposing the full telemetry surface, 'serve' to expose a "
            "monitoring service over TCP, 'list' to enumerate them)"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="workload scale preset (default: small; 'paper' uses the paper's parameters)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "also write the rendered tables to this file; bench-all and report: "
            "where to write the markdown dashboard (default: PERF_dashboard.md)"
        ),
    )
    parser.add_argument(
        "--out",
        default="BENCH_results.json",
        help="bench-all only: where to write the JSON results (default: BENCH_results.json)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=DEFAULT_BATCH_SIZE,
        help="bench-all only: chunk size of the batched measurement mode (default: 64)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="bench-all only: best-of-N repetitions per measurement (default: 3)",
    )
    parser.add_argument(
        "--history-dir",
        default="benchmarks/history",
        help=(
            "bench-all and report: directory of the bench_history.jsonl trajectory "
            "a run appends its condensed entry to and the dashboard is rendered "
            "from (default: benchmarks/history)"
        ),
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="SNAPSHOT.json",
        help=(
            "bench-all and report: telemetry snapshot to append as a dashboard "
            "section -- a raw registry snapshot or the 'obs --format json' document"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="obs only: exposition format printed to stdout (default: prometheus)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="obs only: also write the Chrome trace-event JSON to this file",
    )
    parser.add_argument(
        "--slow-threshold-ms",
        type=float,
        default=None,
        help="obs only: slow-operation log threshold in milliseconds",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress messages",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve only: address to listen on (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="serve only: port to listen on (default: 0 = ephemeral)",
    )
    parser.add_argument(
        "--engine",
        default="ita",
        help=(
            "serve only: engine spec name behind the service "
            "('ita', 'sharded-4', 'sharded-proc-2', ...; default: ita), on "
            "the service's default (columnar) storage"
        ),
    )
    parser.add_argument(
        "--durable-dir",
        default=None,
        help="serve only: durability directory (WAL + checkpoints) for the service",
    )
    parser.add_argument(
        "--observe",
        action="store_true",
        help="serve only: enable the observability runtime before serving",
    )
    return parser


def _run_serve(args: argparse.Namespace, progress) -> int:
    """The ``serve`` mode: expose a MonitoringService over TCP.

    Prints one machine-readable ``SERVING host:port`` line to stdout once
    the listener is bound (the net-smoke harness parses it), then serves
    until SIGTERM/SIGINT -- both trigger the graceful path: in-flight
    requests drain, the WAL is flushed and a final checkpoint written
    when durability is attached, worker processes shut down, exit 0.
    """
    import os
    import signal

    from repro.index.backend import DEFAULT_STORAGE
    from repro.net.server import MonitoringServer
    from repro.service import MonitoringService, spec_from_name

    # A served engine is a service, not a figure cell: it runs on the
    # service's default storage, not on the harness names' "bisect".
    spec = spec_from_name(args.engine, options={"storage": DEFAULT_STORAGE})
    if args.observe:
        from repro.observability import runtime as obs

        obs.enable()
    if args.durable_dir:
        service = MonitoringService.open(args.durable_dir, spec)
    else:
        service = MonitoringService(spec)
    server = MonitoringServer(service, host=args.host, port=args.port)

    def _stop(signum, frame):  # pragma: no cover - signal path, covered by smoke
        if progress is not None:
            progress(f"[serve] received signal {signum}; draining")
        server.shutdown()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    host, port = server.address
    print(f"SERVING {host}:{port}", flush=True)
    if progress is not None:
        progress(f"[serve] engine={args.engine} pid={os.getpid()}")
    server.serve_forever()
    if progress is not None:
        progress("[serve] stopped cleanly")
    return 0


def _write_dashboard(args: argparse.Namespace, progress) -> None:
    """The one reporter: render ``--history-dir`` (plus an optional
    ``--metrics`` telemetry snapshot) into the markdown dashboard."""
    entries = read_history(args.history_dir)
    metrics = None
    if args.metrics:
        with open(args.metrics, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
        # Accept the whole `obs --format json` document too.
        if "snapshot" in metrics and "families" not in metrics:
            metrics = metrics["snapshot"]
    path = args.output or "PERF_dashboard.md"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_perf_dashboard(entries, metrics=metrics))
    if progress is not None:
        progress(f"wrote {path} ({len(entries)} history entries)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, definition in sorted(_definitions("smoke").items()):
            print(f"{name:22s} {definition.paper_reference:35s} {definition.title}")
        return 0

    progress = None if args.quiet else (lambda message: print(message, file=sys.stderr))

    if args.experiment == "serve":
        return _run_serve(args, progress)

    if args.experiment == "obs":
        from repro.workloads.obsrun import run_observed_workload

        if args.slow_threshold_ms is not None and args.slow_threshold_ms < 0:
            parser.error("--slow-threshold-ms must be non-negative")
        if progress is not None:
            progress("[obs] running the instrumented durable + async workload")
        out = run_observed_workload(slow_threshold_ms=args.slow_threshold_ms)
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                handle.write(out["chrome_trace"])
                handle.write("\n")
            if progress is not None:
                progress(f"[obs] wrote {args.trace_out}")
        if args.format == "json":
            document = {
                "snapshot": out["snapshot"],
                "slow_ops": out["slow_ops"],
                "durable": out["durable"],
                "async": out["async"],
            }
            json.dump(document, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            sys.stdout.write(out["prometheus"])
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(out["prometheus"])
            if progress is not None:
                progress(f"[obs] wrote {args.output}")
        return 0

    if args.experiment == "bench-all":
        if args.batch_size <= 0:
            parser.error("--batch-size must be positive")
        if args.repeats <= 0:
            parser.error("--repeats must be positive")
        document = run_bench_suite(
            scale=args.scale,
            batch_size=args.batch_size,
            repeats=args.repeats,
            progress=progress,
        )
        # Nothing is written, appended or rendered from an invalid document.
        check_document(document)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=False)
            handle.write("\n")
        history_path = append_history(document, args.history_dir)
        if progress is not None:
            progress(f"wrote {args.out}; appended history entry to {history_path}")
        _write_dashboard(args, progress)
        for key, value in document["summary"].items():
            print(f"{key}: {value}")
        return 0

    if args.experiment == "report":
        _write_dashboard(args, progress)
        return 0

    sections: List[str] = []
    definitions = _definitions(args.scale)
    selected = definitions.values() if args.experiment == "all" else [definitions[args.experiment]]
    for definition in selected:
        result = run_experiment(definition, progress=progress)
        table = format_result_table(result)
        summary = format_speedup_summary(result)
        sections.append(f"{table}\n{summary}\n")
        print(table)
        print(summary)
        print()

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(sections))
        if not args.quiet:
            print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
