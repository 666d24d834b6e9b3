"""How often subscribing to a process cluster waits for a worker, by count.

A ``sharded-proc`` subscribe writes the registration and returns: the
coordinator reads a worker's acknowledgements only once ``MAX_UNREAD`` of
them are owed, or before it reads anything else from that worker, and one
``RpcConnection.read_response`` reads every owed answer.  This script fills
a 2-worker cluster's window with the ``proc_cluster`` workload's news text
(1,000 documents), subscribes its 1,000 ten-term queries, and counts the
``read_response`` calls -- the times the coordinator blocked on a worker --
the subscribe loop made, with a spy.  Then it ingests one more document and
compares every query's result with the in-process ``sharded`` cluster's
fed the same calls.  It prints the count and the loop's wall time.

The count is the contract and is checked on every run: it exits non-zero
unless the loop made at most ``ceil(queries / MAX_UNREAD) + workers``
reads and every result equals the in-process cluster's.  The time is for
reading side by side with another commit's (``PYTHONPATH`` wins over this
checkout's ``src/``), alternating, on a quiet host.

    python tests/net/bench_subscribe.py [--seed N] [--documents N] [--queries N] [--workers N]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from time import perf_counter
from typing import List

if __name__ == "__main__":  # run as a script: no install, and PYTHONPATH's repro wins
    ROOT = Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(ROOT))
    sys.path.append(str(ROOT / "src"))

from repro.net.protocol import RpcConnection  # noqa: E402
from repro.net.remote import MAX_UNREAD  # noqa: E402
from repro.service import EngineSpec, MonitoringService, WindowSpec  # noqa: E402
from tests.text.bench_text import WORKLOADS, TextGenerator  # noqa: E402


def digest(service: MonitoringService):
    return {
        query_id: [(entry.doc_id, entry.score) for entry in result]
        for query_id, result in service.engine.current_results().items()
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--documents", type=int, default=1_000, help="the window: documents ingested first")
    parser.add_argument("--queries", type=int, default=1_000, help="queries subscribed")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    workload = WORKLOADS["proc_cluster"]
    generator = TextGenerator(args.seed, workload.shape)
    documents = generator.documents(args.documents + 1)
    queries = generator.queries(args.queries, workload.query_terms)
    window = WindowSpec.count(args.documents)

    def build(kind: str) -> MonitoringService:
        service = MonitoringService(EngineSpec(kind=kind, num_shards=args.workers, window=window))
        service.ingest(documents[:-1])
        return service

    with build("sharded") as reference:
        for text in queries:
            reference.subscribe(text, k=workload.k)
        reference.ingest(documents[-1:])
        expected = digest(reference)

    reads = 0
    read_response = RpcConnection.read_response

    def counting(connection, request_id, deadline=None):
        nonlocal reads
        reads += 1
        return read_response(connection, request_id, deadline)

    with build("sharded-proc") as cluster:
        RpcConnection.read_response = counting
        try:
            started = perf_counter()
            for text in queries:
                cluster.subscribe(text, k=workload.k)
            seconds = perf_counter() - started
        finally:
            RpcConnection.read_response = read_response
        cluster.ingest(documents[-1:])
        actual = digest(cluster)

    bound = math.ceil(args.queries / MAX_UNREAD) + args.workers
    equal = sum(actual.get(query_id) == result for query_id, result in expected.items())
    report = {
        "workers": args.workers,
        "queries": args.queries,
        "reads": reads,
        "bound": bound,
        "equal_results": equal,
        "subscribe_ms": round(seconds * 1e3, 1),
    }
    print(f"subscribed {args.queries} queries on {args.workers} workers in {report['subscribe_ms']} ms, "
          f"blocking on a worker {reads} times (at most {bound})")
    print(f"{equal} of {len(expected)} results equal the in-process cluster's after one ingest")
    print(json.dumps(report))
    if reads > bound:
        print(f"FAILED: the subscribe loop read from its workers {reads} times, more than {bound}",
              file=sys.stderr)
        return 1
    if equal != args.queries or len(actual) != args.queries:
        print(f"FAILED: {equal} of {args.queries} results equal the in-process cluster's", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
