"""What restoring a process cluster sends its workers, by count and by byte.

A ``sharded-proc`` restore fills the coordinator (mirror window, registry,
placements) and gives each worker its whole state in one ``restore`` RPC:
a small JSON envelope (version, window, clock) and one column attachment
-- the window, encoded once for all workers, then that worker's queries
with their recorded states (:func:`repro.persistence.encode_queries`) --
every seed written before any answer is read.
This script builds the ``proc_cluster`` workload's state -- a full
1,000-document window of the benchmark's news text and 1,000 ten-term
queries -- snapshots it, restores the snapshot into a fresh 2-worker
cluster, and counts the requests the coordinator wrote, by method, with a
spy on ``RpcConnection.send_request``.  It prints the counts, the
restore's wall time (the workers are spawned before the clock starts),
the coordinator's seed-encoding time (``ShardedEngine._seed`` plus the
envelopes' JSON) and each seed's envelope and attachment bytes.

The counts are the contract and are checked on every run: it exits
non-zero unless the restore sent exactly one ``restore`` per worker and no
``register_query``, ``process_batch_events`` or ``advance_time``; every
seed carried each of its queries' recorded state (thresholds, tau and R),
equal to the source's ``query_states()``, so that no worker runs a
descent; and no seed's JSON envelope names a query (each is under 1 KiB).
The times are for reading side by side with another commit's
(``PYTHONPATH`` wins over this checkout's ``src/``; a commit whose seeds
carry their queries as JSON prints its numbers and fails the last check),
alternating, on a quiet host.

    python tests/net/bench_restore.py [--seed N] [--documents N] [--queries N] [--workers N]
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

if __name__ == "__main__":  # run as a script: no install, and PYTHONPATH's repro wins
    ROOT = Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(ROOT))
    sys.path.append(str(ROOT / "src"))

from repro.cluster.engine import ShardedEngine  # noqa: E402
from repro.net import protocol  # noqa: E402
from repro.net.protocol import RpcConnection  # noqa: E402
from repro.persistence import restore_into  # noqa: E402
from repro.service import EngineSpec, MonitoringService, WindowSpec  # noqa: E402
from tests.text.bench_text import WORKLOADS, TextGenerator  # noqa: E402

#: what a whole-cluster restore may no longer send one call at a time
PER_CALL_METHODS = ("register_query", "process_batch_events", "advance_time")
#: the most bytes a seed's JSON envelope (version, window, clock) may take
ENVELOPE_BYTES = 1024


def _seeded_states(seeds: List[Tuple[Dict[str, Any], bytes]]) -> Dict[int, Any]:
    """Each seeded query's recorded state by query id, its columns as lists
    (as ``query_states()`` gives them; ``None``: the seed carried none)."""
    seeded: Dict[int, Any] = {}
    for envelope, columns in seeds:
        records = envelope["snapshot"].get("queries")
        if records is not None:  # a commit whose seeds carry their queries as JSON
            seeded.update((record["query_id"], record.get("state")) for record in records)
            continue
        from repro.persistence import decode_seed

        _, queries, states = decode_seed(columns)
        for query in queries:
            state = states.get(query.query_id)
            if state is not None:
                state = dict(state, **{column: list(state[column]) for column in ("thresholds", "ids", "scores")})
            seeded[query.query_id] = state
    return seeded


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
    seeds = []
    encoding = [0.0]
    send_request, seed, to_json = RpcConnection.send_request, ShardedEngine._seed, protocol._json

    def counting(connection, method, params=None, deadline=None):
        sent[method] += 1
        if method == "restore":
            seeds.append(params)
        return send_request(connection, method, params, deadline)

    def timed(encode):
        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return encode(*args, **kwargs)
            finally:
                encoding[0] += perf_counter() - started

        return wrapper

    cluster = EngineSpec(kind="sharded-proc", num_shards=args.workers, window=window).build()
    try:
        RpcConnection.send_request, ShardedEngine._seed = counting, timed(seed)
        protocol._json = timed(to_json)
        try:
            started = perf_counter()
            restore_into(snapshot, cluster)
            seconds = perf_counter() - started
        finally:
            RpcConnection.send_request, ShardedEngine._seed, protocol._json = send_request, seed, to_json
        restored = (len(cluster.window), len(cluster.query_ids()))
    finally:
        cluster.close()

    seeded = _seeded_states(seeds)
    envelopes = [len(json.dumps(envelope)) for envelope, _ in seeds]
    report = {
        "workers": args.workers,
        "documents": restored[0],
        "queries": restored[1],
        "requests": dict(sorted(sent.items())),
        "seeded_states": sum(seeded.get(query_id) == state for query_id, state in expected.items()),
        "restore_ms": round(seconds * 1e3, 1),
        "seed_encode_ms": round(encoding[0] * 1e3, 1),
        "envelope_bytes": envelopes,
        "attachment_bytes": [len(columns) for _, columns in seeds],
    }
    print(f"restored {restored[0]} documents and {restored[1]} queries into {args.workers} workers "
          f"in {report['restore_ms']} ms")
    print("requests by method:", ", ".join(f"{method} {count}" for method, count in report["requests"].items()))
    print(f"seeds carried {report['seeded_states']} of {len(expected)} queries' states")
    print(f"coordinator encoded the seeds in {report['seed_encode_ms']} ms; envelope bytes "
          f"{report['envelope_bytes']}, attachment bytes {report['attachment_bytes']}")
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
    named = [envelope for envelope, _ in seeds if "queries" in envelope["snapshot"]]
    if named or max(envelopes, default=0) >= ENVELOPE_BYTES:
        print(f"FAILED: a seed's JSON envelope names its queries ({envelopes} bytes)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
