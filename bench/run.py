"""The benchmark's command line.

Two ways to run it, both from the root of a checkout:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in this process -- what ``BENCHMARK.json``
    names as the command.  Prints every metric by name with its unit, writes
    the full record to ``bench/out/``, and ends with the one-line JSON
    result (``correct`` / ``attempted`` / ``failed`` / ``metrics``).
    ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
    ones over identical inputs.  Exits non-zero when any check failed.

``python3 bench/run.py --seed N [--repeats R]``
    Every workload, one at a time, each run in a fresh subprocess -- ``R``
    untraced runs on seeds ``N .. N+R-1``, then a traced run on seed ``N``
    -- and one result file ``bench/out/result-seed<N>.json`` holding all of
    it, including ``bench.trace_overhead`` (traced / untraced time per
    document).  Two such files are what ``compare.py`` compares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from metrics import END_TO_END, INTERACTIONS, PER_LAYER
from workloads import BY_NAME, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SECONDS = 6
UNITS = {metric.name: metric.unit for metric in [*END_TO_END, *PER_LAYER]}


def _environment() -> Dict[str, Any]:
    """Where the numbers come from: the key ROADMAP 1a asks every entry to carry."""
    try:
        sha: Optional[str] = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a bare checkout (the driver's) is not a git repository
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _record_path(workload: str, seed: int, traced: bool) -> Path:
    return OUT_DIR / f"run-{workload}-seed{seed}-{'traced' if traced else 'untraced'}.json"


def _print_record(record: Dict[str, Any]) -> None:
    kind = "traced, per-layer" if record["traced"] else "untraced, end-to-end"
    print(f"== {record['workload']}  seed={record['seed']}  {record['seconds']}s  ({kind})")
    print(f"   sizes: {record['sizes']}")
    print(f"   samples: {record['samples']}")
    print(f"   inputs sha256: {record['inputs_sha256']}")
    raw = record.get("raw_metrics", {})  # the end-to-end timings as measured, before calibration
    for name, value in record["metrics"].items():
        measured = f"   (measured: {raw[name]:.6f})" if name in raw and raw[name] != value else ""
        print(f"   {name:<36} {value:>16.6f} {UNITS[name]}{measured}")
    error_rate = record["failed"] / record["attempted"]
    print(f"   {'error_rate':<36} {error_rate:>16.6f} ratio  ({record['failed']} of {record['attempted']})")


def run_single(workload_name: str, seed: int, seconds: float, traced: bool, quick: bool) -> int:
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"the program under test is missing: no src/repro under {REPO_ROOT}", file=sys.stderr)
        return 2
    # Anything the program puts in a temporary directory stays in the checkout.
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)

    from harness import run_workload  # imports the program under test

    if workload_name not in BY_NAME:
        print(f"unknown workload {workload_name!r}; known: {sorted(BY_NAME)}", file=sys.stderr)
        return 2
    record = run_workload(BY_NAME[workload_name], seed, seconds, traced, quick=quick)
    record["env"] = _environment()
    wanted = [metric.name for metric in (PER_LAYER if traced else END_TO_END)]
    record["metrics"] = {name: float(record["metrics"][name]) for name in wanted}
    _print_record(record)
    with open(_record_path(workload_name, seed, traced), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in record["metrics"].items()
        },
    }))
    return 0 if record["correct"] else 1


def _child(workload: str, seed: int, seconds: float, traced: bool, quick: bool) -> Optional[Dict[str, Any]]:
    """One run in a fresh subprocess; its record, or None if it produced none."""
    path = _record_path(workload, seed, traced)
    path.unlink(missing_ok=True)
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if traced else "0",
    ]
    if quick:
        command.append("--quick")
    completed = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
    # everything but the machine-readable last line
    sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
    sys.stdout.flush()
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
    if not path.is_file():
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_all(seed: int, repeats: int, seconds: float, quick: bool, only: Optional[List[str]]) -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    results: List[Dict[str, Any]] = []
    complete = True
    for workload in WORKLOADS:
        if only and workload.name not in only:
            continue
        untraced = [_child(workload.name, seed + i, seconds, False, quick) for i in range(repeats)]
        traced = _child(workload.name, seed, seconds, True, quick)
        entry: Dict[str, Any] = {
            "workload": workload.name,
            "why": workload.why,
            "untraced": [record for record in untraced if record is not None],
            "traced": traced,
        }
        records = [*untraced, traced]
        complete = complete and all(record is not None and record["correct"] for record in records)
        if untraced[0] is not None and traced is not None:
            # both ran the same seed: traced / untraced time per document,
            # each relative to its own calibration
            overhead = traced["samples"]["reported_ms_per_doc"] / untraced[0]["samples"]["reported_ms_per_doc"]
            entry["bench.trace_overhead"] = overhead
            print(f"   {'bench.trace_overhead':<36} {overhead:>16.6f} ratio")
        results.append(entry)
    path = OUT_DIR / f"result-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "seed": seed, "repeats": repeats, "seconds": seconds, "quick": quick,
                "claim": None, "load_model": "closed loop, 1 caller, 1 thread", "env": _environment(),
                # written down before measuring: what each layer metric should move, and how they combine
                "predictions": {metric.name: metric.moves for metric in PER_LAYER},
                "interactions": INTERACTIONS,
                "workloads": results,
            },
            handle, indent=1,
        )
    print(f"wrote {path}")
    return 0 if complete else 1


def _pin_hash_seed() -> None:
    """Re-execute with ``PYTHONHASHSEED=0`` unless already so.

    String hashing is randomised per process; it decides the iteration order
    of the program's sets of terms and so, slightly, the work it does.  With
    it pinned, ``--seed`` is the only source of randomness in a run (shard
    workers inherit the environment).
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", help="run only this workload (with --trace: in this process)")
    parser.add_argument("--seed", type=int, required=True, help="the only source of randomness")
    parser.add_argument("--repeats", type=int, default=1, help="untraced runs per workload, on seeds N, N+1, ...")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="how long the measured phase lasts")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="about 1/10 sizes, for the smoke test; not a benchmark")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        return run_single(args.workload[0], args.seed, args.seconds, bool(args.trace), args.quick)
    return run_all(args.seed, args.repeats, args.seconds, args.quick, args.workload)


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
