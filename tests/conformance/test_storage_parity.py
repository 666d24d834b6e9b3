"""Storage-backend parity on the differential conformance tapes.

The op tapes of :mod:`tests.conformance.test_differential_fuzz` are
replayed twice per engine kind -- once on the ``"bisect"`` reference
backend and once on ``"columnar"`` (the array-backed columns of
:mod:`repro.index.columnar`, what a service runs by default) -- and the
runs must be indistinguishable.
The columnar backend is a *representation* change: every probe, descent,
roll-up and eviction must touch the same values in the same order, so the
contract here is strictly tighter than the cross-kind conformance suite:

* **top-k snapshots** are exact at every observation point, on the
  tie-heavy tape included (same kind, same algorithm -- tie handling must
  be reproduced bit for bit, not merely up to equal scores);
* **change streams** are bit-identical, content and order;
* **per-query alert streams** are bit-identical;
* **operation counters** are bit-identical at every observation point --
  the columnar backend must not change *what* work the algorithm does,
  only how the postings are laid out;
* **service snapshots** hold the same logical state at every checkpoint;
  only the engine-config envelope (which records the storage backend
  itself) may differ, and restoring a snapshot onto the *other* backend
  reproduces the same results.

The out-of-process cluster is covered on one tape (worker processes are
expensive to spawn; the in-process kinds cover all three tapes).

The tapes compare what a *service* shows.  Beneath them, a property test
replays insert / expire / ``advance_time`` / subscribe / unsubscribe tapes
on two bare engines and compares the **index** itself: the columnar
backend keeps the lists of unwatched terms unordered, and whatever order
they are promoted in, every term's list -- cold ones included -- must read
back exactly as the bisect backend's does.
"""

from __future__ import annotations

import copy
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ITAEngine
from repro.documents.window import TimeBasedWindow
from repro.query.query import ContinuousQuery
from repro.service import MonitoringService
from tests.conftest import make_document
from tests.conformance.test_differential_fuzz import (
    TAPES,
    digest_results,
    generate_tape,
    run_sync,
)

SHARDED = "sharded-ita-3"
PROC = "sharded-proc-2"


def scrub_storage(node: Any) -> Any:
    """``node`` with every ``"storage"`` key removed, recursively.

    The storage backend is recorded in the service spec and in every
    engine (and shard) config of a snapshot; it is the *one* field that
    legitimately differs between the two runs.  Everything else --
    documents, queries, window, clock, vocabulary -- must not.
    """
    if isinstance(node, dict):
        return {
            key: scrub_storage(value)
            for key, value in node.items()
            if key != "storage"
        }
    if isinstance(node, list):
        return [scrub_storage(value) for value in node]
    return node


def assert_storage_parity(engine_name: str, seed: int, tie_heavy: bool) -> None:
    tape = generate_tape(seed, tie_heavy)
    bisect_log = run_sync(engine_name, tape)
    columnar_log = run_sync(engine_name, tape, storage="columnar")

    context = f"({engine_name}, seed {seed})"
    assert len(columnar_log.digests) == len(bisect_log.digests), context
    assert len(columnar_log.changes) == len(bisect_log.changes), context
    assert len(columnar_log.snapshots) == len(bisect_log.snapshots), context

    # Top-k snapshots: exact, ties included.
    assert columnar_log.digests == bisect_log.digests, (
        f"top-k diverged between storage backends {context}"
    )

    # Change streams: bit-identical, content and order.
    for index, changes in enumerate(bisect_log.changes):
        assert changes == columnar_log.changes[index], (
            f"change stream diverged at ingest op {index} {context}"
        )

    # Alert streams: bit-identical per query.
    assert dict(columnar_log.alerts) == dict(bisect_log.alerts), context

    # Counters: bit-identical -- same probes, same scores, same roll-ups.
    assert columnar_log.counters == bisect_log.counters, (
        f"operation counters diverged between storage backends {context}"
    )

    # Snapshots: same logical state outside the recorded backend name.
    assert [scrub_storage(s) for s in columnar_log.snapshots] == [
        scrub_storage(s) for s in bisect_log.snapshots
    ], f"snapshot state diverged between storage backends {context}"


@pytest.mark.parametrize("seed,tie_heavy", TAPES)
def test_ita_columnar_is_bit_identical_on_tapes(seed: int, tie_heavy: bool) -> None:
    assert_storage_parity("ita", seed, tie_heavy)


@pytest.mark.parametrize("seed,tie_heavy", TAPES)
def test_sharded_columnar_is_bit_identical_on_tapes(seed: int, tie_heavy: bool) -> None:
    assert_storage_parity(SHARDED, seed, tie_heavy)


def test_proc_columnar_is_bit_identical_on_one_tape() -> None:
    seed, tie_heavy = TAPES[0]
    assert_storage_parity(PROC, seed, tie_heavy)


def test_snapshot_restores_across_storage_backends() -> None:
    """A bisect snapshot restored as columnar (and vice versa) reproduces
    the same results: persistence is logical, so the storage backend is a
    restore-time choice, not a property of the data."""
    seed, tie_heavy = TAPES[0]
    tape = generate_tape(seed, tie_heavy, num_ops=120)
    for source, target in (("bisect", "columnar"), ("columnar", "bisect")):
        log = run_sync("ita", tape, storage=source)
        assert log.snapshots, "tape produced no checkpoints"
        snapshot = log.snapshots[-1]
        converted = copy.deepcopy(snapshot)
        converted["spec"]["storage"] = target
        restored = MonitoringService.restore(converted)
        try:
            assert restored.engine.index.backend.name == target
            restored.engine.index.check_invariants()
            reference = MonitoringService.restore(snapshot)
            try:
                assert digest_results(restored.results()) == digest_results(
                    reference.results()
                )
            finally:
                reference.close()
        finally:
            restored.close()


# --------------------------------------------------------------------------- #
# the index beneath the tapes: every term's list, cold ones included
# --------------------------------------------------------------------------- #
VOCABULARY = range(8)
WINDOW_SPAN = 4.0

_weights = st.dictionaries(
    st.sampled_from(VOCABULARY),
    st.sampled_from([0.1, 0.25, 0.5, 0.5, 1.0]),  # tie-heavy
    min_size=1,
    max_size=4,
)
_step = st.sampled_from([0.5, 1.0, 3.0])  # 3.0 expires most of the window
_index_ops = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), _weights, _step),
        st.tuples(st.just("advance"), _step),
        st.tuples(st.just("subscribe"), _weights, st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("unsubscribe"), st.integers(min_value=0, max_value=7)),
    ),
    min_size=4,
    max_size=40,
)


def _replay_on_index(storage: str, ops) -> ITAEngine:
    engine = ITAEngine(TimeBasedWindow(WINDOW_SPAN), storage=storage)
    clock = 0.0
    next_doc = next_query = 0
    live = []
    for op in ops:
        if op[0] == "ingest":
            clock += op[2]
            document = make_document(next_doc, op[1], arrival_time=clock)
            next_doc += 1
            # the path a service drives: the fused kernel on columnar
            engine.process_batch_events([document])
        elif op[0] == "advance":
            clock += op[1]
            engine.advance_time(clock)
        elif op[0] == "subscribe":
            engine.register_query(
                ContinuousQuery(query_id=next_query, weights=op[1], k=op[2])
            )
            live.append(next_query)
            next_query += 1
        elif live:
            engine.unregister_query(live.pop(op[1] % len(live)))
    engine.check_invariants()
    return engine


@given(ops=_index_ops)
@settings(max_examples=120, deadline=None)
def test_every_list_reads_back_identically_on_both_backends(ops) -> None:
    bisect_engine = _replay_on_index("bisect", ops)
    columnar_engine = _replay_on_index("columnar", ops)
    reference, index = bisect_engine.index, columnar_engine.index

    assert sorted(index.terms()) == sorted(reference.terms())
    assert index.posting_count() == reference.posting_count()
    assert index.list_lengths() == reference.list_lengths()
    for term_id in VOCABULARY:
        expected = reference.existing_list(term_id)
        actual = index.existing_list(term_id)
        if expected is None:
            assert actual is None, f"term {term_id} has a list only on columnar"
        else:
            assert actual is not None, f"term {term_id} has a list only on bisect"
            assert actual.to_pairs() == expected.to_pairs(), f"term {term_id}"
    # reading the lists in order promoted the cold ones; nothing else moved
    columnar_engine.check_invariants()
    assert columnar_engine.counters.as_dict() == bisect_engine.counters.as_dict()
    for query_id in bisect_engine.query_ids():
        assert columnar_engine.current_result(query_id) == (
            bisect_engine.current_result(query_id)
        )
