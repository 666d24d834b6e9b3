"""What a restore costs per query, by count: nothing but installing its state.

A snapshot records each query's ITA state -- tau, the local thresholds and
the result container R in rank order -- and a restore installs it instead
of re-running the initial threshold descent.  This script builds the
benchmark's ``alerts_steady`` state on one default service -- a full
1,000-document window of its news text (seed 7), 1,000 ten-term queries at
k = 10, then another 500 documents so the queries have rolled up and
refilled -- snapshots it through JSON and restores it into a fresh
service.  It prints the postings the restore read, the scores it
computed, how many queries came back in their exact state, the snapshot's
size and the restore's wall time.

The counts are the contract and are checked on every run: it exits
non-zero unless the restore read no posting and computed no score (the
window's documents are replayed before any query exists, so every one of
those would be a query's installation) and every query's thresholds, tau
and ordered R equal the original's.  The time is for reading side by side
with another commit's (``PYTHONPATH`` wins over this checkout's ``src/``),
alternating, on a quiet host.

    python tests/core/bench_restore_state.py [--seed N] [--documents N] [--queries N] [--more N]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import List

if __name__ == "__main__":  # run as a script: no install, and PYTHONPATH's repro wins
    ROOT = Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(ROOT))
    sys.path.append(str(ROOT / "src"))

from repro.service import EngineSpec, MonitoringService, WindowSpec  # noqa: E402
from tests.text.bench_text import WORKLOADS, TextGenerator  # noqa: E402


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--documents", type=int, default=1_000, help="the window: documents restored")
    parser.add_argument("--queries", type=int, default=1_000, help="queries restored")
    parser.add_argument("--more", type=int, default=500, help="documents streamed after subscribing")
    args = parser.parse_args(argv)

    workload = WORKLOADS["alerts_steady"]
    generator = TextGenerator(args.seed, workload.shape)
    with MonitoringService(EngineSpec(window=WindowSpec.count(args.documents))) as source:
        source.ingest(generator.documents(args.documents))
        for text in generator.queries(args.queries, workload.query_terms):
            source.subscribe(text, k=workload.k)
        source.ingest(generator.documents(args.more))
        blob = json.dumps(source.snapshot())
        expected = source.engine.query_states()

    snapshot = json.loads(blob)
    started = perf_counter()
    restored = MonitoringService.restore(snapshot)
    seconds = perf_counter() - started
    with restored:
        counters = restored.counters.as_dict()
        states = restored.engine.query_states()

    exact = sum(states.get(query_id) == state for query_id, state in expected.items())
    report = {
        "queries": len(expected),
        "exact_states": exact,
        "postings_scanned": counters["postings_scanned"],
        "scores_computed": counters["scores_computed"],
        "snapshot_bytes": len(blob),
        "restore_ms": round(seconds * 1e3, 1),
    }
    print(f"restored {len(states)} queries over {args.documents} documents in {report['restore_ms']} ms "
          f"({len(blob):,}-byte snapshot)")
    print(f"{report['postings_scanned']} postings read, {report['scores_computed']} scores computed, "
          f"{exact} of {len(expected)} queries in their exact state")
    print(json.dumps(report))
    if counters["postings_scanned"] or counters["scores_computed"] or exact != len(expected) or (
        len(states) != len(expected)
    ):
        print("FAILED: a restore must install every query's recorded thresholds, tau and R "
              "without reading a posting or computing a score", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
