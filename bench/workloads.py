"""The six workloads: what each feeds the service, and why it was chosen.

Sizes are the issue's, scaled down where the contract's time cap (136 runs
in 3420 s, so about 25 s a run *including* three set-ups, three recoveries
and the output check -- and the host can be 1.6x slower than when these
sizes were chosen) demands it; ``reason`` records each decision.  No
workload times fewer than 1000 ``ingest()`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List

from textgen import TextShape

__all__ = ["Workload", "WORKLOADS", "BY_NAME"]

_NEWS = TextShape(vocab_size=20_000, median_tokens=60, stopword_rate=0.2)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: why the sizes are what they are (recorded in every result)
    reason: str
    shape: TextShape
    #: distinct query texts, and subscriptions per text
    queries: int
    fanout: int = 1
    query_terms: int = 10
    k: int = 10
    #: count-window size; 0 means a time window of ``window_span`` seconds
    #: fed by Poisson arrivals at ``arrival_rate`` documents per second
    window: int = 1_000
    window_span: float = 0.0
    arrival_rate: float = 0.0
    #: documents per ingest() call
    batch: int = 1
    #: "plain", "durable", "queryscale", "proc" or "churn"
    kind: str = "plain"
    #: timed ingest() calls per block; every timing is taken per block
    block_calls: int = 100
    #: blocks every run measures before its time may be up -- the counted
    #: prefix, over which operation counts are taken
    prefix_blocks: int = 10

    @property
    def prefill(self) -> int:
        """Documents that fill the window before anything is timed."""
        return self.window or int(self.window_span * self.arrival_rate)

    def sizes(self) -> Dict[str, Any]:
        return {
            "vocab_size": self.shape.vocab_size,
            "median_tokens": self.shape.median_tokens,
            "window": self.window or f"{self.window_span}s at {self.arrival_rate}/s",
            "subscriptions": self.queries * self.fanout,
            "distinct_queries": self.queries,
            "batch": self.batch,
            "block_calls": self.block_calls,
            "prefix_blocks": self.prefix_blocks,
            "reason": self.reason,
        }

    def quick(self) -> "Workload":
        """About a tenth of the size, for the smoke test only."""
        return replace(
            self,
            queries=max(10, self.queries // 10),
            window=self.window // 10,
            window_span=self.window_span / 10,
            block_calls=max(20, self.block_calls // 5),
            prefix_blocks=max(2, self.prefix_blocks // 5),
        )


WORKLOADS: List[Workload] = [
    Workload(
        name="alerts_steady",
        why="Paper Fig. 3(a) regime end to end: N=1000, Q=1000 ten-term k=10 with callbacks, ~60-token docs; "
        "core/index do most of the work, text little. proc_cluster's baseline. Closed loop, 1 caller.",
        reason="the issue's sizes; 6 s at ~500 docs/s times ~3000 calls",
        shape=_NEWS,
        queries=1_000,
    ),
    Workload(
        name="text_heavy",
        why="~480-token docs over 160k inflected surface forms (overflows the stemmer cache), 35% stopwords, N=200, "
        "Q=50: text/weighting/vocabulary do most of the work. Closed loop, 1 caller.",
        reason="the issue's sizes; 6 s at ~240 docs/s times ~1500 calls",
        shape=TextShape(
            vocab_size=40_000, median_tokens=480, stopword_rate=0.35, inflect_rate=0.5, zipf_s=0.9, zipf_q=20.0
        ),
        queries=50,
        window=200,
    ),
    Workload(
        name="bulk_durable",
        why="open() with default DurabilityPolicy, columnar storage, Q=200 poll-style, batches of 8, crash copy + "
        "reopen: WAL append/fsync/checkpoint form the p99 tail. Closed loop, 1 caller.",
        reason="the issue's sizes; the crash is taken after the first 1000 timed calls (8000 documents)",
        shape=_NEWS,
        queries=200,
        batch=8,
        kind="durable",
    ),
    Workload(
        name="query_scale",
        why="6000 subscriptions at fan-out 10 (600 distinct) through QueryScaleOptions() dedup, each with a callback: "
        "queryscale expand and alerting fan-out dominate. Closed loop, 1 caller.",
        reason="20000 subscriptions scaled to 6000: three set-ups and three restores of 20000 handles "
        "would alone take the run past its share of the time cap",
        shape=_NEWS,
        queries=600,
        fanout=10,
        kind="queryscale",
    ),
    Workload(
        name="churn_mixed",
        why="Writes beside reads: time window, Poisson arrivals, advance_time, Q~1000, ops 50% ingest/25% "
        "subscribe/25% unsubscribe, a result() poll after each. Closed loop, 1 caller.",
        reason="the issue's sizes; a block is 200 operations, 100 of them ingests",
        shape=_NEWS,
        queries=1_000,
        window=0,
        window_span=5.0,
        arrival_rate=200.0,
        kind="churn",
    ),
    Workload(
        name="proc_cluster",
        why="The alerts_steady stream and queries on EngineSpec(kind='sharded-proc', num_shards=2): net + cluster "
        "(framing, per-document RPC, full replication) are the difference. Closed loop, 1 caller.",
        reason="alerts_steady's sizes; 6 s at ~340 docs/s times ~2000 calls",
        shape=_NEWS,
        queries=1_000,
        kind="proc",
    ),
]

BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}
