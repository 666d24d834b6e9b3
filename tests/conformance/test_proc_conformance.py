"""Differential conformance of the out-of-process cluster.

The op tapes of :mod:`tests.conformance.test_differential_fuzz` are
replayed against ``"sharded-proc-3"`` -- three worker *processes* behind
the framed RPC of :mod:`repro.net` -- and the run must be indistinguishable
from the in-process engines:

* **top-k snapshots** at every observation point are exact against the
  single ITA engine (sharding preserves exact results, ties included,
  and JSON float round-trips are exact -- nothing may drift over the
  wire);
* **change streams** are bit-identical (content *and* order) to ITA's
  and to the in-process sharded cluster's;
* **per-query alert streams** are bit-identical to ITA's;
* **service snapshots** at every checkpoint hold the same logical state
  (documents, queries, window, clock, vocabulary) as ITA's -- the
  envelopes differ only in the engine spec they carry;
* **operation counters** are bit-identical to the in-process sharded
  cluster's (same shard count, same placement: moving a shard into its
  own process must not change what work it does).  Counter equality is
  asserted on restore-free replays and up to the first checkpoint on the
  full tapes: a snapshot *restore* legitimately recomputes derived state
  (threshold descents) with different work per restore strategy, exactly
  why the original fuzz suite never compares counters across kinds.

A second test SIGKILLs one worker mid-tape: the supervisor must restart
it, re-seed it from the coordinator's own state, and finish the tape with
every stream still bit-identical -- crash recovery is invisible to the
client.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Dict, List, Tuple

import pytest

from repro.query.query import ContinuousQuery
from repro.service import MonitoringService
from tests.conformance.test_differential_fuzz import (
    TAPES,
    RunLog,
    _spec,
    assert_digests_agree,
    generate_tape,
    normalize_alert,
    normalize_change,
    digest_results,
    run_sync,
)

PROC = "sharded-proc-3"
SHARDED = "sharded-ita-3"


def strip_envelope(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The engine-kind-independent part of a service snapshot.

    The spec and the engine's self-reported name legitimately differ
    between kinds; the *data* -- documents, queries, window, clock,
    vocabulary, id sequence -- must not.
    """
    engine = dict(snapshot["engine"])
    engine.pop("engine", None)  # the engine kind name
    engine.pop("config", None)  # per-kind construction knobs
    engine.pop("num_shards", None)  # placement: clusters only
    engine["queries"] = [
        {key: value for key, value in record.items() if key != "shard"}
        for record in engine["queries"]
    ]
    return {
        "vocabulary": snapshot["vocabulary"],
        "clock": snapshot["clock"],
        "next_doc_id": snapshot["next_doc_id"],
        "engine": engine,
    }


@pytest.mark.parametrize("seed,tie_heavy", TAPES)
def test_proc_cluster_is_bit_identical_on_tapes(seed: int, tie_heavy: bool) -> None:
    tape = generate_tape(seed, tie_heavy)

    reference = run_sync("ita", tape)
    sharded = run_sync(SHARDED, tape)
    proc = run_sync(PROC, tape)

    assert len(proc.digests) == len(reference.digests)
    assert len(proc.changes) == len(reference.changes)
    assert len(proc.snapshots) == len(reference.snapshots)

    # 1. Top-k snapshots: exact against ITA at every observation point.
    for index, digest in enumerate(proc.digests):
        assert_digests_agree(
            reference.digests[index],
            digest,
            exact=True,
            context=f"(sharded-proc, observation {index}, seed {seed})",
        )

    # 2. Change streams: bit-identical to the in-process cluster and to ITA.
    assert proc.changes == sharded.changes
    for index, changes in enumerate(reference.changes):
        assert changes == proc.changes[index], (
            f"change stream diverged at ingest op {index} (seed {seed})"
        )

    # 3. Per-query alert streams: bit-identical to ITA's.
    assert dict(proc.alerts) == dict(reference.alerts)

    # 4. Service snapshots: same logical state as ITA at every checkpoint.
    assert [strip_envelope(s) for s in proc.snapshots] == [
        strip_envelope(s) for s in reference.snapshots
    ]

    # 5. Counters: bit-identical to the in-process sharded cluster at
    #    every observation before the first snapshot restore (restores
    #    recompute derived state; see the module docstring).
    observes_before_restore = 0
    for op in tape:
        if op[0] == "checkpoint":
            break
        if op[0] == "observe":
            observes_before_restore += 1
    assert proc.counters[:observes_before_restore] == (
        sharded.counters[:observes_before_restore]
    )


def test_counters_match_in_process_cluster_without_restores() -> None:
    """Full-tape counter bit-identity on a restore-free replay."""
    seed, tie_heavy = TAPES[1]
    tape = generate_tape(seed, tie_heavy)
    sharded = run_sync_with_kill(SHARDED, tape, kill_at=-1)
    proc = run_sync_with_kill(PROC, tape, kill_at=-1)
    assert len(proc.counters) >= 10
    assert proc.counters == sharded.counters
    assert proc.digests == sharded.digests


def run_sync_with_kill(
    engine_name: str, tape: List[Tuple], kill_at: int, storage: str = "bisect"
) -> RunLog:
    """Replay ``tape`` like ``run_sync`` but SIGKILL worker 0 at one op.

    No checkpoint/restore ops here -- the point is that the *same*
    cluster object survives the crash via supervised restart + re-seed,
    so checkpoint ops are replayed as observations instead.
    """
    log = RunLog()
    service = MonitoringService(_spec(engine_name, storage))
    handles: Dict[int, Any] = {}

    def drain_alerts() -> None:
        for query_id, handle in handles.items():
            log.alerts[query_id].extend(
                normalize_alert(alert) for alert in handle.changes()
            )

    try:
        for index, op in enumerate(tape):
            if index == kill_at:
                victim = service.engine.worker_pids()[0]
                os.kill(victim, signal.SIGKILL)
                time.sleep(0.1)
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
            elif kind in ("observe", "checkpoint"):
                drain_alerts()
                log.digests.append(digest_results(service.results()))
                log.counters.append(service.counters.as_dict())
            else:  # pragma: no cover - tape generator bug
                raise AssertionError(f"unknown op {kind!r}")
        log.restarts = getattr(service.engine, "total_restarts", 0)
    finally:
        service.close()
    return log


@pytest.mark.parametrize("storage", ["bisect", "columnar"])
def test_sigkill_mid_tape_is_invisible_after_coordinator_reseed(storage: str) -> None:
    """Both storage backends: the restarted worker is seeded through the
    normal event path (``restore_into``), so the columnar backend must
    come back bit-identical too."""
    seed, tie_heavy = TAPES[0]
    tape = generate_tape(seed, tie_heavy)
    kill_at = len(tape) // 2

    reference = run_sync_with_kill("ita", tape, kill_at=-1, storage=storage)
    killed = run_sync_with_kill(PROC, tape, kill_at=kill_at, storage=storage)

    assert killed.restarts >= 1, "the kill never triggered a supervised restart"
    assert len(killed.digests) == len(reference.digests)
    for index, digest in enumerate(killed.digests):
        assert_digests_agree(
            reference.digests[index],
            digest,
            exact=True,
            context=f"(post-kill observation {index})",
        )
    for index, changes in enumerate(reference.changes):
        assert changes == killed.changes[index], (
            f"change stream diverged at ingest op {index} after the kill"
        )
    assert dict(killed.alerts) == dict(reference.alerts)
