"""What restoring a process cluster sends its workers, by count.

A ``sharded-proc`` restore fills the coordinator (mirror window, registry,
placements) and gives each worker its whole state in one ``restore`` RPC:
the window as the shard channel's columns, encoded once for all workers,
plus that worker's queries, every seed written before any answer is read.
This script builds the ``proc_cluster`` workload's state -- a full
1,000-document window of the benchmark's news text and 1,000 ten-term
queries -- snapshots it, restores the snapshot into a fresh 2-worker
cluster, and counts the requests the coordinator wrote, by method, with a
spy on ``RpcConnection.send_request``.  It prints the counts and the
restore's wall time (the workers are spawned before the clock starts).

The counts are the contract and are checked on every run: it exits
non-zero unless the restore sent exactly one ``restore`` per worker and no
``register_query``, ``process_batch_events`` or ``advance_time``, and
every seed carried each of its queries' recorded state (thresholds, tau
and R), so that no worker runs a descent.  The
time is for reading side by side with another commit's (``PYTHONPATH``
wins over this checkout's ``src/``), alternating, on a quiet host.

    python tests/net/bench_restore.py [--seed N] [--documents N] [--queries N] [--workers N]
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import List

if __name__ == "__main__":  # run as a script: no install, and PYTHONPATH's repro wins
    ROOT = Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(ROOT))
    sys.path.append(str(ROOT / "src"))

from repro.net.protocol import RpcConnection  # noqa: E402
from repro.persistence import restore_into  # noqa: E402
from repro.service import EngineSpec, MonitoringService, WindowSpec  # noqa: E402
from tests.text.bench_text import WORKLOADS, TextGenerator  # noqa: E402

#: what a whole-cluster restore may no longer send one call at a time
PER_CALL_METHODS = ("register_query", "process_batch_events", "advance_time")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--documents", type=int, default=1_000, help="the window: documents restored")
    parser.add_argument("--queries", type=int, default=1_000, help="queries restored")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    workload = WORKLOADS["proc_cluster"]
    generator = TextGenerator(args.seed, workload.shape)
    window = WindowSpec.count(args.documents)
    # The source state is built in-process; the snapshot format is the same.
    with MonitoringService(EngineSpec(kind="sharded", num_shards=args.workers, window=window)) as source:
        source.ingest(generator.documents(args.documents))
        for text in generator.queries(args.queries, workload.query_terms):
            source.subscribe(text, k=workload.k)
        snapshot = json.loads(json.dumps(source.snapshot()["engine"]))
        expected = source.engine.query_states()

    sent: Counter = Counter()
    seeded = {}
    send_request = RpcConnection.send_request

    def counting(connection, method, params=None, deadline=None):
        sent[method] += 1
        if method == "restore":
            seeded.update((record["query_id"], record.get("state")) for record in params[0]["snapshot"]["queries"])
        return send_request(connection, method, params, deadline)

    cluster = EngineSpec(kind="sharded-proc", num_shards=args.workers, window=window).build()
    try:
        RpcConnection.send_request = counting
        try:
            started = perf_counter()
            restore_into(snapshot, cluster)
            seconds = perf_counter() - started
        finally:
            RpcConnection.send_request = send_request
        restored = (len(cluster.window), len(cluster.query_ids()))
    finally:
        cluster.close()

    report = {
        "workers": args.workers,
        "documents": restored[0],
        "queries": restored[1],
        "requests": dict(sorted(sent.items())),
        "seeded_states": sum(seeded.get(query_id) == state for query_id, state in expected.items()),
        "restore_ms": round(seconds * 1e3, 1),
    }
    print(f"restored {restored[0]} documents and {restored[1]} queries into {args.workers} workers "
          f"in {report['restore_ms']} ms")
    print("requests by method:", ", ".join(f"{method} {count}" for method, count in report["requests"].items()))
    print(f"seeds carried {report['seeded_states']} of {len(expected)} queries' states")
    print(json.dumps(report))
    if sent["restore"] != args.workers or any(sent[method] for method in PER_CALL_METHODS) or (
        restored != (args.documents, args.queries)
    ):
        print(f"FAILED: expected exactly {args.workers} restore requests and no "
              f"{', '.join(PER_CALL_METHODS)}, restoring every document and query; "
              f"sent {dict(sent)}", file=sys.stderr)
        return 1
    if report["seeded_states"] != args.queries or len(seeded) != args.queries:
        print(f"FAILED: the seeds carried {report['seeded_states']} of {args.queries} queries' recorded "
              "states", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
