"""Storage-backend parity on the differential conformance tapes.

The op tapes of :mod:`tests.conformance.test_differential_fuzz` are
replayed twice per engine kind -- once on the default ``"bisect"``
storage backend and once on ``"columnar"`` (the array-backed columns of
:mod:`repro.index.columnar`) -- and the runs must be indistinguishable.
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
"""

from __future__ import annotations

import copy
from typing import Any

import pytest

from repro.service import MonitoringService
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
