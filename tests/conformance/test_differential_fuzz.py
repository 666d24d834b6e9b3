"""Randomized differential conformance: every engine kind, one op tape.

A seeded generator produces a *tape* of interleaved service operations --
subscribe / unsubscribe / single-document ingest / batched ingest /
snapshot+restore checkpoints / observation points -- and the tape is
replayed, identically, against:

* the ITA engine, the Naive and k_max-Naive baselines and the sharded
  cluster, each behind a synchronous :class:`~repro.service.MonitoringService`,
* the sharded cluster behind the *asynchronous* façade
  (:class:`~repro.service.AsyncMonitoringService`), whose off-loop worker
  lane must be a pure execution-strategy change.

What must agree:

* **top-k snapshots** at every observation point -- exactly across all
  kinds on tie-free tapes; up to ties at equal scores on the tie-heavy
  tape (scores always compare exactly);
* **change streams** -- exactly (content and order; each event's changes
  are ordered by query id on every path) between the sharded cluster's
  sync and async runs, between ITA and the cluster, and across every
  kind on tie-free tapes;
* **service snapshots** at every checkpoint -- bit-identical between the
  cluster's sync and async runs;
* **operation counters** -- bit-identical between the cluster's sync and
  async runs (the lane must not change what work is done, only where
  it runs).

Counters are *not* compared across kinds: computing fewer scores than
Naive is the paper's point, not a bug.  The tape sizes satisfy the
repository's conformance budget: >= 3 seeds x >= 500 ops each.
"""

from __future__ import annotations

import asyncio
import random
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.query.query import ContinuousQuery
from repro.service import (
    AsyncMonitoringService,
    MonitoringService,
    WindowSpec,
    spec_from_name,
)
from tests.conftest import make_document

#: (seed, tie_heavy): two tie-free tapes (continuous weights, so document
#: ids compare exactly across engine kinds) and one tie-heavy tape drawn
#: from the discrete grid, which exercises every engine's tie handling.
TAPES = [(1101, False), (2203, False), (3307, True)]

NUM_OPS = 520
WINDOW_SIZE = 24
NUM_TERMS = 16
SHARDED = "sharded-ita-3"
ENGINE_NAMES = ["ita", "naive", "naive-kmax", SHARDED]

#: async lane shape: small batches and a shallow queue so the tape
#: crosses many batch boundaries and hits backpressure
ASYNC_KW = dict(queue_depth=2, batch_size=7)

TIE_GRID = [0.1, 0.2, 0.25, 0.5, 0.75, 1.0]


# --------------------------------------------------------------------------- #
# tape generation (pure data, fully determined by the seed)
# --------------------------------------------------------------------------- #
def generate_tape(seed: int, tie_heavy: bool, num_ops: int = NUM_OPS) -> List[Tuple]:
    rng = random.Random(seed)

    def weight() -> float:
        if tie_heavy:
            return rng.choice(TIE_GRID)
        return round(rng.uniform(0.05, 1.0), 6)

    def weights(max_terms: int, min_terms: int = 0) -> Dict[int, float]:
        count = rng.randint(min_terms, max_terms)
        terms = rng.sample(range(NUM_TERMS), count) if count else []
        return {term: weight() for term in terms}

    tape: List[Tuple] = []
    next_query_id = 0
    next_doc_id = 0
    clock = 0.0
    active: List[int] = []

    def make_docs(count: int) -> List:
        nonlocal next_doc_id, clock
        documents = []
        for _ in range(count):
            clock += rng.choice([0.1, 0.5, 1.0])
            documents.append(
                make_document(next_doc_id, weights(5), arrival_time=round(clock, 6))
            )
            next_doc_id += 1
        return documents

    # A couple of standing queries and a little history before the random
    # interleaving starts, so early observations are non-trivial.
    for _ in range(2):
        tape.append(("subscribe", next_query_id, weights(4, min_terms=1), rng.randint(1, 4)))
        active.append(next_query_id)
        next_query_id += 1
    tape.append(("ingest", make_docs(8)))

    while len(tape) < num_ops:
        roll = rng.random()
        if roll < 0.35:
            tape.append(("ingest", make_docs(1)))
        elif roll < 0.60:
            tape.append(("ingest", make_docs(rng.randint(2, 11))))
        elif roll < 0.74:
            tape.append(("subscribe", next_query_id, weights(4, min_terms=1), rng.randint(1, 4)))
            active.append(next_query_id)
            next_query_id += 1
        elif roll < 0.82 and len(active) > 1:
            tape.append(("unsubscribe", active.pop(rng.randrange(len(active)))))
        elif roll < 0.96:
            tape.append(("observe",))
        else:
            tape.append(("checkpoint",))
    tape.append(("observe",))
    return tape


# --------------------------------------------------------------------------- #
# normalisation helpers
# --------------------------------------------------------------------------- #
def _entry_key(entry) -> Tuple[int, float]:
    return (entry.doc_id, round(entry.score, 9))


def normalize_change(change) -> Tuple:
    return (
        change.query_id,
        tuple(_entry_key(entry) for entry in change.entered),
        tuple(_entry_key(entry) for entry in change.left),
    )


def normalize_alert(alert) -> Tuple:
    document = alert.document.doc_id if alert.document is not None else None
    return (*normalize_change(alert.change), document)


def digest_results(results: Dict[int, Any]) -> Dict[int, Tuple]:
    return {
        query_id: tuple(_entry_key(entry) for entry in result)
        for query_id, result in results.items()
    }


class RunLog:
    """Everything one backend produced while replaying the tape."""

    def __init__(self) -> None:
        #: per ingest op: the normalized flattened change list, in order
        self.changes: List[List[Tuple]] = []
        #: per observe op: {query_id: ((doc_id, score), ...)}
        self.digests: List[Dict[int, Tuple]] = []
        #: per observe op: the engine's counter block
        self.counters: List[Dict[str, int]] = []
        #: per checkpoint: the raw service snapshot (JSON-compatible dict)
        self.snapshots: List[Dict[str, Any]] = []
        #: per query: the normalized alert stream its handle delivered
        self.alerts: Dict[int, List[Tuple]] = defaultdict(list)


# --------------------------------------------------------------------------- #
# tape replay: synchronous and asynchronous backends
# --------------------------------------------------------------------------- #
def _spec(engine_name: str, storage: Optional[str] = None):
    # Through ``options`` the choice reaches the shards of a cluster name
    # too; without it a harness name means the "bisect" reference.
    options = {} if storage is None else {"storage": storage}
    return spec_from_name(
        engine_name, window=WindowSpec.count(WINDOW_SIZE), options=options
    )


def run_sync(
    engine_name: str, tape: List[Tuple], storage: Optional[str] = None
) -> RunLog:
    log = RunLog()
    service = MonitoringService(_spec(engine_name, storage))
    handles: Dict[int, Any] = {}

    def drain_alerts() -> None:
        for query_id, handle in handles.items():
            log.alerts[query_id].extend(
                normalize_alert(alert) for alert in handle.changes()
            )

    for op in tape:
        kind = op[0]
        if kind == "subscribe":
            _, query_id, weights, k = op
            handles[query_id] = service.subscribe(
                ContinuousQuery(query_id=query_id, weights=weights, k=k)
            )
        elif kind == "unsubscribe":
            _, query_id = op
            drain_alerts()
            handles.pop(query_id).unsubscribe()
        elif kind == "ingest":
            _, documents = op
            changes = service.ingest(documents)
            log.changes.append([normalize_change(change) for change in changes])
        elif kind == "observe":
            drain_alerts()
            log.digests.append(digest_results(service.results()))
            log.counters.append(service.counters.as_dict())
        elif kind == "checkpoint":
            drain_alerts()
            snapshot = service.snapshot()
            log.snapshots.append(snapshot)
            service.close()
            service = MonitoringService.restore(snapshot)
            handles = {query_id: service.handle(query_id) for query_id in handles}
        else:  # pragma: no cover - tape generator bug
            raise AssertionError(f"unknown op {kind!r}")
    return log


def run_async(engine_name: str, tape: List[Tuple]) -> RunLog:
    async def replay() -> RunLog:
        log = RunLog()
        service = await AsyncMonitoringService(_spec(engine_name), **ASYNC_KW).start()
        handles: Dict[int, Any] = {}

        async def drain_alerts() -> None:
            await service.drain()
            for query_id, handle in handles.items():
                log.alerts[query_id].extend(
                    normalize_alert(alert) for alert in handle.changes()
                )

        for op in tape:
            kind = op[0]
            if kind == "subscribe":
                _, query_id, weights, k = op
                handles[query_id] = await service.subscribe(
                    ContinuousQuery(query_id=query_id, weights=weights, k=k)
                )
            elif kind == "unsubscribe":
                _, query_id = op
                await drain_alerts()
                await service.unsubscribe(query_id)
                handles.pop(query_id)
            elif kind == "ingest":
                _, documents = op
                changes = await service.ingest(documents)
                log.changes.append([normalize_change(change) for change in changes])
            elif kind == "observe":
                await drain_alerts()
                log.digests.append(digest_results(await service.results()))
                log.counters.append(service.counters.as_dict())
            elif kind == "checkpoint":
                await drain_alerts()
                snapshot = await service.snapshot()
                log.snapshots.append(snapshot)
                await service.close()
                service = await AsyncMonitoringService.restore(snapshot, **ASYNC_KW)
                handles = {
                    query_id: await service.handle(query_id) for query_id in handles
                }
            else:  # pragma: no cover - tape generator bug
                raise AssertionError(f"unknown op {kind!r}")
        await service.aclose()
        return log

    return asyncio.run(replay())


# --------------------------------------------------------------------------- #
# comparisons
# --------------------------------------------------------------------------- #
def assert_digests_agree(
    reference: Dict[int, Tuple],
    candidate: Dict[int, Tuple],
    exact: bool,
    context: str,
) -> None:
    assert sorted(reference) == sorted(candidate), f"query sets differ {context}"
    for query_id, expected in reference.items():
        actual = candidate[query_id]
        if exact:
            assert actual == expected, (
                f"top-k diverged for query {query_id} {context}: "
                f"{expected} != {actual}"
            )
            continue
        # Tie-tolerant: the score sequences must match exactly; each
        # reported document must achieve a score some reference document
        # achieves (only relaxes the comparison at exact ties).
        expected_scores = [score for _, score in expected]
        actual_scores = [score for _, score in actual]
        assert expected_scores == actual_scores, (
            f"score sequences differ for query {query_id} {context}"
        )
        allowed = set(expected_scores)
        assert all(score in allowed for _, score in actual), context


@pytest.mark.parametrize("seed,tie_heavy", TAPES)
def test_differential_fuzz(seed: int, tie_heavy: bool) -> None:
    tape = generate_tape(seed, tie_heavy)
    assert len(tape) >= 500

    logs = {name: run_sync(name, tape) for name in ENGINE_NAMES}
    logs["sharded-async"] = run_async(SHARDED, tape)

    reference = logs["ita"]
    sharded = logs[SHARDED]
    sharded_async = logs["sharded-async"]

    # Every backend saw the same number of observation/ingest/checkpoint
    # points -- a guard against a backend silently skipping tape ops.
    for name, log in logs.items():
        assert len(log.digests) == len(reference.digests), name
        assert len(log.changes) == len(reference.changes), name
        assert len(log.snapshots) == len(reference.snapshots), name

    # 1. Top-k snapshots agree across every kind at every observation.
    for name, log in logs.items():
        exact = (not tie_heavy) or name in (SHARDED, "sharded-async")
        for index, digest in enumerate(log.digests):
            assert_digests_agree(
                reference.digests[index],
                digest,
                exact=exact,
                context=f"(backend {name}, observation {index}, seed {seed})",
            )

    # 2a. Sync and async cluster runs are bit-identical: ordered change
    #     streams, per-query alert streams, snapshots, and counters.
    assert sharded_async.changes == sharded.changes
    assert dict(sharded_async.alerts) == dict(sharded.alerts)
    assert sharded_async.snapshots == sharded.snapshots
    assert sharded_async.counters == sharded.counters

    # 2b. ITA vs the cluster: the exact same change stream (content and
    #     order) and, per query, the exact same alert stream -- sharding
    #     one ITA engine into three must not change anything reported.
    # 2c. On tie-free tapes the baselines must report them too.
    same_stream = [SHARDED] if tie_heavy else [SHARDED, "naive", "naive-kmax"]
    for name in same_stream:
        log = logs[name]
        for index, changes in enumerate(reference.changes):
            assert changes == log.changes[index], (
                f"change stream diverged at ingest op {index} "
                f"(backend {name}, seed {seed})"
            )
        assert dict(log.alerts) == dict(reference.alerts), name


def test_tape_generation_is_deterministic() -> None:
    """Same seed, same tape -- the suite's reproducibility contract."""
    first = generate_tape(1101, False)
    second = generate_tape(1101, False)
    assert first == second
    ops = [op[0] for op in first]
    # The tape must actually interleave every op kind.
    for kind in ("subscribe", "unsubscribe", "ingest", "observe", "checkpoint"):
        assert kind in ops, f"tape never exercises {kind!r}"


def test_tapes_cover_required_budget() -> None:
    """>= 3 seeds x >= 500 ops, as required by the conformance budget."""
    assert len(TAPES) >= 3
    for seed, tie_heavy in TAPES:
        assert len(generate_tape(seed, tie_heavy)) >= 500
