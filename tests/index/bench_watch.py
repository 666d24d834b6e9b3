"""How many terms a churning service watches, by count.

A term is watched (a threshold tree, and on the default columnar storage
its postings kept in ordered columns) exactly while some live query has
it: the last unsubscribe of a term turns it back into a cold record.  This
script replays the operation mix of the benchmark's ``churn_mixed``
workload on one default service -- 1,000 ten-term queries, a 5 s time
window fed by Poisson arrivals at 200 documents per second, then blocks of
100 ingests, 50 subscribes and 50 unsubscribes in a seeded order, one
ingest in eight preceded by ``advance_time`` -- over the benchmark's news
text (seed 7).  After set-up and every ``--every`` blocks it prints the
threshold trees, the empty ones, the postings held in ordered columns,
the cold records, the ids they hold and how many of those name expired
documents, and the distinct terms of the live queries.

The counts do not depend on the host or on ``PYTHONHASHSEED``, so they are
checked on every run: it exits non-zero unless, at every print, no tree is
empty, the trees are exactly as many as the live queries' distinct
terms, and the cold records hold at most ``MAX_STALE_PER_COLD_RECORD``
stale ids each on average.  A record drops its expired head only when an
append brings its length to a multiple of 16, so a rarely seen term's
record holds 0 to 15 stale ids.  This workload reads 2.6 per record after
40 blocks and settles near 3.3 (0.8 when every append checked the head);
records that never dropped their heads would hold 7.0 after 40 blocks and
grow without bound.  ``PYTHONPATH`` wins over this
checkout's ``src/``, so the same script reads another commit's index.

    python tests/index/bench_watch.py [--seed N] [--blocks N] [--every N]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Dict, List

if __name__ == "__main__":  # run as a script: no install, and PYTHONPATH's repro wins
    ROOT = Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(ROOT))
    sys.path.append(str(ROOT / "src"))

from repro.service import EngineSpec, MonitoringService, WindowSpec  # noqa: E402
from tests.text.bench_text import WORKLOADS, TextGenerator  # noqa: E402

#: ingests per block; half as many subscribes and unsubscribes ride along
BLOCK_INGESTS = 100
#: one ingest in this many is preceded by an ``advance_time`` call
ADVANCE_EVERY = 8
#: stale ids the cold records may hold, per record (see the module docstring)
MAX_STALE_PER_COLD_RECORD = 5


def counts(service: MonitoringService) -> Dict[str, int]:
    engine = service.engine
    index = engine.index
    trees = index._trees.values()
    valid = index.documents._documents
    return {
        "trees": len(trees),
        "empty_trees": sum(1 for tree in trees if not len(tree)),
        "ordered_postings": sum(len(inverted_list) for inverted_list in index._lists.values()),
        "cold_records": len(index._cold),
        "cold_ids": sum(map(len, index._cold.values())),
        "stale_cold_ids": sum(doc_id not in valid for ids in index._cold.values() for doc_id in ids),
        "live_query_terms": len(
            {term for state in engine._states.values() for term in state.query.weights}
        ),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--blocks", type=int, default=40)
    parser.add_argument("--every", type=int, default=10, help="blocks between prints")
    args = parser.parse_args(argv)

    workload = WORKLOADS["churn_mixed"]
    generator = TextGenerator(args.seed, workload.shape)
    arrivals = random.Random(f"{args.seed}:arrivals")
    operations = random.Random(f"{args.seed}:operations")
    clock = 0.0

    def ingest(text: str) -> None:
        nonlocal clock
        previous = clock
        clock += arrivals.expovariate(workload.arrival_rate)
        if operations.random() < 1 / ADVANCE_EVERY:
            service.advance_time((previous + clock) / 2)
        service.ingest(text, at=clock)

    def subscribe(text: str) -> None:
        handles.append(service.subscribe(text, k=workload.k, on_change=lambda alert: None))

    spec = EngineSpec(window=WindowSpec.time(workload.window_span))
    rows = []
    with MonitoringService(spec) as service:
        for text in generator.documents(workload.prefill):
            clock += arrivals.expovariate(workload.arrival_rate)
            service.ingest(text, at=clock)
        handles: List = []
        for text in generator.queries(workload.queries, workload.query_terms):
            subscribe(text)
        rows.append({"blocks": 0, **counts(service)})
        for block in range(1, args.blocks + 1):
            kinds = ["ingest"] * BLOCK_INGESTS + ["subscribe", "unsubscribe"] * (BLOCK_INGESTS // 2)
            operations.shuffle(kinds)
            texts = iter(generator.documents(BLOCK_INGESTS))
            queries = iter(generator.queries(BLOCK_INGESTS // 2, workload.query_terms))
            for kind in kinds:
                if kind == "ingest":
                    ingest(next(texts))
                elif kind == "subscribe":
                    subscribe(next(queries))
                elif len(handles) > 1:
                    pick = int(operations.random() * len(handles))
                    handles[pick], handles[-1] = handles[-1], handles[pick]
                    handles.pop().unsubscribe()
            if block % args.every == 0:
                rows.append({"blocks": block, **counts(service)})

    failures = []
    for row in rows:
        print(f"after {row['blocks']:>3} blocks: {row['trees']:>6,} trees, {row['empty_trees']:>6,} empty, "
              f"{row['ordered_postings']:>7,} ordered postings, {row['cold_records']:>6,} cold records "
              f"({row['cold_ids']:>7,} ids, {row['stale_cold_ids']:>6,} stale), "
              f"{row['live_query_terms']:>6,} live query terms")
        if row["empty_trees"] or row["trees"] != row["live_query_terms"]:
            failures.append(f"after {row['blocks']} blocks: {row['trees']:,} trees, {row['empty_trees']:,} "
                            f"empty, for {row['live_query_terms']:,} live query terms")
        if row["stale_cold_ids"] > MAX_STALE_PER_COLD_RECORD * row["cold_records"]:
            failures.append(f"after {row['blocks']} blocks: {row['stale_cold_ids']:,} stale ids in "
                            f"{row['cold_records']:,} cold records (at most {MAX_STALE_PER_COLD_RECORD} each)")
    print(json.dumps(rows))
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
