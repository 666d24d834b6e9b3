"""Randomized differential properties of the query-scale layer.

A seeded, duplicate-heavy operation tape (many subscribers sharing few
distinct term/weight sets, with the term *insertion order permuted* per
subscription so ``"white tower"`` and ``"tower white"`` style duplicates
are exercised) is replayed twice over every engine kind: once with the
query-scale layer disabled (the per-subscriber baseline) and once per
query-scale configuration -- plain dedup, event-count hibernation and a
resident-cap hibernation policy.

The contract: the query-scale layer must be **invisible to subscribers**.
Result digests at every observation point, per-ingest change sets (the
fan-out re-orders *within* one event by subscriber id, the same latitude
the conformance suite grants the cluster's merged stream; per-query
ordering is pinned exactly by the alert streams) and per-query alert
streams must be bit-identical to the baseline run
(tie-free tapes: continuous weights make score ties absent, which is the
repository-wide bit-identity convention -- see
``tests/conformance/test_differential_fuzz.py``).  Snapshots and counters
are *not* compared across dedup on/off: computing and storing less is the
subsystem's point, and the properties below pin that direction instead
(strictly fewer scores computed, canonical count == distinct sets).
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.query.query import ContinuousQuery
from repro.queryscale import QueryScaleOptions
from repro.service import MonitoringService, WindowSpec, spec_from_name
from tests.conformance.test_differential_fuzz import (
    digest_results,
    normalize_alert,
    normalize_change,
)
from tests.conftest import make_document

WINDOW_SIZE = 24
NUM_TERMS = 16

#: query-scale configurations differentially checked against dedup-off
OPTION_SETS = [
    pytest.param(QueryScaleOptions(dedup=True), id="dedup"),
    pytest.param(QueryScaleOptions(dedup=True, hibernate_after=6), id="hibernate"),
    pytest.param(QueryScaleOptions(dedup=True, max_resident=3), id="max-resident"),
]


# --------------------------------------------------------------------------- #
# tape generation (pure data, fully determined by the seed)
# --------------------------------------------------------------------------- #
def generate_dedup_tape(
    seed: int,
    num_ops: int = 200,
    pool_size: int = 8,
    include_checkpoints: bool = True,
) -> List[Tuple]:
    """A duplicate-heavy tape over a small pool of distinct queries.

    Every subscribe op draws its ``(weights, k)`` from the pool and
    shuffles the weight dict's insertion order, so canonicalization (not
    dict identity) is what makes subscriptions coincide.  Weights are
    continuous, keeping the tape tie-free.
    """
    rng = random.Random(seed)

    def weight() -> float:
        return round(rng.uniform(0.05, 1.0), 6)

    pool: List[Tuple[Tuple[Tuple[int, float], ...], int]] = []
    for _ in range(pool_size):
        count = rng.randint(1, 4)
        terms = rng.sample(range(NUM_TERMS), count)
        pool.append((tuple((term, weight()) for term in terms), rng.randint(1, 3)))

    def permuted_weights(entry: Tuple[Tuple[int, float], ...]) -> Dict[int, float]:
        items = list(entry)
        rng.shuffle(items)
        return dict(items)

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
            term_count = rng.randint(0, 5)
            terms = rng.sample(range(NUM_TERMS), term_count) if term_count else []
            documents.append(
                make_document(
                    next_doc_id,
                    {term: weight() for term in terms},
                    arrival_time=round(clock, 6),
                )
            )
            next_doc_id += 1
        return documents

    # Every distinct set subscribed once up front plus a little history,
    # so the interleaving starts with real duplicates to fan out to.
    for entry, k in pool:
        tape.append(("subscribe", next_query_id, permuted_weights(entry), k))
        active.append(next_query_id)
        next_query_id += 1
    tape.append(("ingest", make_docs(10)))

    while len(tape) < num_ops:
        roll = rng.random()
        if roll < 0.30:
            entry, k = pool[rng.randrange(len(pool))]
            tape.append(("subscribe", next_query_id, permuted_weights(entry), k))
            active.append(next_query_id)
            next_query_id += 1
        elif roll < 0.40 and len(active) > 2:
            tape.append(("unsubscribe", active.pop(rng.randrange(len(active)))))
        elif roll < 0.65:
            tape.append(("ingest", make_docs(1)))
        elif roll < 0.82:
            tape.append(("ingest", make_docs(rng.randint(2, 9))))
        elif roll < 0.95 or not include_checkpoints:
            tape.append(("observe",))
        else:
            tape.append(("checkpoint",))
    tape.append(("observe",))
    return tape


# --------------------------------------------------------------------------- #
# tape replay
# --------------------------------------------------------------------------- #
class DedupRunLog:
    """Subscriber-visible output of one replay, plus dedup facts."""

    def __init__(self) -> None:
        self.changes: List[List[Tuple]] = []
        self.digests: List[Dict[int, Tuple]] = []
        self.alerts: Dict[int, List[Tuple]] = defaultdict(list)
        self.scores_computed = 0
        self.saw_hibernation = False
        self.max_canonical = 0
        self.max_subscribed = 0


def run_with_options(
    engine_name: str, tape: List[Tuple], options: Optional[QueryScaleOptions] = None
) -> DedupRunLog:
    spec = spec_from_name(engine_name, window=WindowSpec.count(WINDOW_SIZE))
    if options is not None:
        spec = spec.with_overrides(queryscale=options)
    log = DedupRunLog()
    service = MonitoringService(spec)
    handles: Dict[int, Any] = {}

    def drain_alerts() -> None:
        for query_id, handle in handles.items():
            log.alerts[query_id].extend(
                normalize_alert(alert) for alert in handle.changes()
            )

    def note_queryscale() -> None:
        manager = service.queryscale
        if manager is None:
            return
        log.saw_hibernation = log.saw_hibernation or manager.hibernated_count > 0
        log.max_canonical = max(log.max_canonical, manager.canonical_count)
        log.max_subscribed = max(log.max_subscribed, manager.subscribed)

    try:
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
                if service.queryscale is not None:
                    service.queryscale.check_invariants()
            elif kind == "checkpoint":
                drain_alerts()
                snapshot = service.snapshot()
                service.close()
                service = MonitoringService.restore(snapshot)
                handles = {query_id: service.handle(query_id) for query_id in handles}
            else:  # pragma: no cover - tape generator bug
                raise AssertionError(f"unknown op {kind!r}")
            drain_alerts()
            note_queryscale()
        log.scores_computed = service.counters.as_dict()["scores_computed"]
    finally:
        service.close()
    return log


def assert_subscriber_streams_match(
    baseline: DedupRunLog, log: DedupRunLog, context: str
) -> None:
    assert log.digests == baseline.digests, f"result digests diverged ({context})"
    assert log.changes == baseline.changes, f"change streams diverged ({context})"
    assert dict(log.alerts) == dict(baseline.alerts), f"alert streams diverged ({context})"


def assert_scoring_savings(
    baseline: DedupRunLog, log: DedupRunLog, options: QueryScaleOptions
) -> None:
    """Plain dedup must score strictly fewer events than the
    per-subscriber run (O(distinct), the subsystem's point).  The
    hibernation variants are exempt: waking re-registers a query against
    the live window, so a churn-heavy tape can legitimately re-score more
    than dedup saves -- hibernation trades CPU for resident memory."""
    if options.hibernation_enabled:
        return
    assert log.scores_computed < baseline.scores_computed


# --------------------------------------------------------------------------- #
# the differential suites
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [7717, 9341])
@pytest.mark.parametrize("options", OPTION_SETS)
def test_ita_matches_baseline(seed, options):
    tape = generate_dedup_tape(seed)
    baseline = run_with_options("ita", tape)
    log = run_with_options("ita", tape, options)
    assert_subscriber_streams_match(baseline, log, f"ita seed={seed} {options}")
    assert_scoring_savings(baseline, log, options)


@pytest.mark.parametrize("options", OPTION_SETS)
def test_sharded_cluster_matches_baseline(options):
    tape = generate_dedup_tape(7717)
    baseline = run_with_options("sharded-ita-3", tape)
    log = run_with_options("sharded-ita-3", tape, options)
    assert_subscriber_streams_match(baseline, log, f"sharded-ita-3 {options}")
    assert_scoring_savings(baseline, log, options)


@pytest.mark.parametrize("options", OPTION_SETS)
def test_proc_cluster_matches_baseline(options):
    """The out-of-process cluster behind the same query-scale layer.

    A shorter, checkpoint-free tape: worker processes make each op a
    round-trip, and the proc cluster's durability/restore path is
    exercised by its own suite, not here.
    """
    tape = generate_dedup_tape(5531, num_ops=80, include_checkpoints=False)
    baseline = run_with_options("sharded-proc-2", tape)
    log = run_with_options("sharded-proc-2", tape, options)
    assert_subscriber_streams_match(baseline, log, f"sharded-proc-2 {options}")
    assert_scoring_savings(baseline, log, options)


def test_hibernation_policies_actually_hibernate():
    """The hibernation variants must exercise the hibernate/wake path --
    a differential pass over a tape that never hibernates proves
    nothing about it."""
    tape = generate_dedup_tape(7717)
    for options, expected in [
        (QueryScaleOptions(dedup=True), False),
        (QueryScaleOptions(dedup=True, hibernate_after=6), True),
        (QueryScaleOptions(dedup=True, max_resident=3), True),
    ]:
        log = run_with_options("ita", tape, options)
        assert log.saw_hibernation == expected, options


def test_canonical_count_tracks_distinct_sets_not_subscribers():
    tape = generate_dedup_tape(7717, pool_size=6)
    log = run_with_options("ita", tape, QueryScaleOptions(dedup=True))
    assert log.max_canonical <= 6
    assert log.max_subscribed > log.max_canonical, (
        "the tape must actually fan out duplicate subscriptions"
    )
