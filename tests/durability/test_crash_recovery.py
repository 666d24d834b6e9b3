"""Kill-point crash recovery against the conformance-fuzz tapes.

A seeded operation tape (the same generator the differential conformance
suite uses) is replayed against a *durable* service, and after every
logged record the durability directory is captured exactly as a crash at
that record boundary would leave it.  Each capture is then recovered and
must reproduce, **bit-identically**, the uninterrupted run's service
snapshot at that boundary -- for the single ITA engine, the sharded
cluster (per-shard logs merged by lsn), and the asynchronous ingest lane
(log-before-ack).  Most tapes draw continuous weights; one tie-heavy tape
recovers from checkpoints that carry each query's state, and is held to
the same bit-identity.

On top of the snapshot oracle:

* the durable run's change streams, digests and alert streams must equal
  a plain (memory-only) service's run of the same tape -- write-ahead
  logging must be semantically invisible;
* recovered services must *continue* the tape identically: per-op change
  content, per-query alert streams and final results match the
  uninterrupted run's tail (sampled kill points, to bound runtime);
* with the initial (empty) checkpoint, recovery replays the whole history
  through the normal event path, so even the operation counters match the
  uninterrupted run exactly.
"""

import asyncio
import shutil
from typing import Any, Dict, List, Tuple

import pytest

from repro.durability import DurabilityPolicy
from repro.query.query import ContinuousQuery
from repro.service import (
    AsyncMonitoringService,
    MonitoringService,
    WindowSpec,
    spec_from_name,
)
from tests.conformance.test_differential_fuzz import (
    digest_results,
    generate_tape,
    normalize_alert,
    normalize_change,
)

WINDOW_SIZE = 16
FAST_NO_CHECKPOINT = DurabilityPolicy(
    fsync="never", checkpoint_every=0, segment_max_records=16
)


def durable_spec(engine_name: str, policy: DurabilityPolicy, storage: str = "bisect"):
    spec = spec_from_name(engine_name, window=WindowSpec.count(WINDOW_SIZE))
    return spec.with_overrides(durability=policy, storage=storage)


def plain_spec(engine_name: str, storage: str = "bisect"):
    spec = spec_from_name(engine_name, window=WindowSpec.count(WINDOW_SIZE))
    if storage != "bisect":
        spec = spec.with_overrides(storage=storage)
    return spec


def strip_checkpoints(tape: List[Tuple]) -> List[Tuple]:
    """Replace snapshot/restore ops with observations (the durable runs
    exercise checkpointing through the durability layer instead)."""
    return [("observe",) if op[0] == "checkpoint" else op for op in tape]


class OracleRun:
    """Everything the uninterrupted durable run produced, per boundary."""

    def __init__(self) -> None:
        #: lsn -> service snapshot at that record boundary
        self.snapshots: Dict[int, Dict[str, Any]] = {}
        #: lsn -> engine counters at that boundary
        self.counters: Dict[int, Dict[str, int]] = {}
        #: lsn -> (next op index, active query ids, per-query alert counts)
        self.boundaries: Dict[int, Tuple[int, Tuple[int, ...], Dict[int, int]]] = {}
        #: per ingest op: normalized change list
        self.changes: List[List[Tuple]] = []
        #: per observe op: results digest
        self.digests: List[Dict[int, Tuple]] = []
        #: per query: normalized alert stream
        self.alerts: Dict[int, List[Tuple]] = {}
        #: results digest at the end of the whole tape
        self.final_digest: Dict[int, Tuple] = {}


def run_durable_sync(
    tape: List[Tuple], spec, root, captures, capture_dirs: Dict[int, Any]
) -> OracleRun:
    """Replay ``tape`` against a durable service, capturing the directory
    at every record boundary (a crash can only land on one)."""
    oracle = OracleRun()
    service = MonitoringService.open(root, spec)
    handles: Dict[int, Any] = {}

    def drain_alerts() -> None:
        for query_id, handle in handles.items():
            oracle.alerts.setdefault(query_id, []).extend(
                normalize_alert(alert) for alert in handle.changes()
            )

    def capture(index: int) -> None:
        lsn = service.durability.last_lsn
        oracle.snapshots[lsn] = service.snapshot()
        oracle.counters[lsn] = service.counters.as_dict()
        oracle.boundaries[lsn] = (
            index + 1,
            tuple(sorted(handles)),
            {qid: len(stream) for qid, stream in oracle.alerts.items()},
        )
        target = captures / str(lsn)
        if target.exists():
            shutil.rmtree(target)
        shutil.copytree(root, target)
        capture_dirs[lsn] = target

    for index, op in enumerate(tape):
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
            oracle.changes.append([normalize_change(change) for change in changes])
        elif kind == "observe":
            drain_alerts()
            oracle.digests.append(digest_results(service.results()))
        elif kind == "checkpoint":
            drain_alerts()
            service.checkpoint()
        else:  # pragma: no cover - tape generator bug
            raise AssertionError(f"unknown op {kind!r}")
        drain_alerts()
        capture(index)
    oracle.final_digest = digest_results(service.results())
    service.close()
    return oracle


def run_plain_sync(tape: List[Tuple], spec) -> Tuple[List, List, Dict]:
    """The memory-only reference run: changes, digests, alert streams."""
    service = MonitoringService(spec)
    handles: Dict[int, Any] = {}
    changes_log: List[List[Tuple]] = []
    digests: List[Dict[int, Tuple]] = []
    alerts: Dict[int, List[Tuple]] = {}

    def drain_alerts() -> None:
        for query_id, handle in handles.items():
            alerts.setdefault(query_id, []).extend(
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
            changes_log.append([normalize_change(change) for change in changes])
        elif kind in ("observe", "checkpoint"):
            drain_alerts()
            digests.append(digest_results(service.results()))
        drain_alerts()
    service.close()
    return changes_log, digests, alerts


def continue_tape(
    service, tape: List[Tuple], start_index: int, active: Tuple[int, ...]
) -> Tuple[List, Dict, Dict]:
    """Replay the tape's tail on a recovered service."""
    handles = {query_id: service.handle(query_id) for query_id in active}
    changes_log: List[List[Tuple]] = []
    alerts: Dict[int, List[Tuple]] = {}
    final_digest: Dict[int, Tuple] = {}

    def drain_alerts() -> None:
        for query_id, handle in handles.items():
            alerts.setdefault(query_id, []).extend(
                normalize_alert(alert) for alert in handle.changes()
            )

    for op in tape[start_index:]:
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
            changes_log.append([normalize_change(change) for change in changes])
        elif kind == "checkpoint":
            drain_alerts()
            service.checkpoint()
        drain_alerts()
    final_digest = digest_results(service.results())
    return changes_log, alerts, final_digest


# --------------------------------------------------------------------------- #
# the kill-point suites
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "engine_name,storage",
    [
        ("ita", "bisect"),
        ("ita", "columnar"),
        ("sharded-ita-2", "bisect"),
        ("sharded-ita-2", "columnar"),
    ],
)
def test_every_kill_point_recovers_bit_identically(engine_name, storage, tmp_path):
    """Truncating the log at *every* record boundary and recovering must
    reproduce the uninterrupted snapshot, counters included (the initial
    checkpoint is empty, so recovery replays the whole history).  Both
    storage backends are covered: WAL replay rides the normal event path,
    so the columnar engine must recover bit-identically too."""
    tape = strip_checkpoints(generate_tape(4111, tie_heavy=False, num_ops=64))
    root = tmp_path / "live"
    captures = tmp_path / "killpoints"
    captures.mkdir()
    capture_dirs: Dict[int, Any] = {}
    oracle = run_durable_sync(
        tape,
        durable_spec(engine_name, FAST_NO_CHECKPOINT, storage),
        root,
        captures,
        capture_dirs,
    )

    # Logging must be semantically invisible: the durable run equals the
    # plain run op for op.
    plain_changes, plain_digests, plain_alerts = run_plain_sync(
        tape, plain_spec(engine_name, storage)
    )
    assert oracle.changes == plain_changes
    assert oracle.digests == plain_digests
    assert oracle.alerts == plain_alerts

    assert len(capture_dirs) >= 30, "tape produced too few record boundaries"
    for lsn, directory in sorted(capture_dirs.items()):
        recovered = MonitoringService.open(directory)
        assert recovered.last_recovery.last_lsn == lsn
        assert recovered.snapshot() == oracle.snapshots[lsn], (
            f"snapshot diverged at kill point lsn={lsn} ({engine_name})"
        )
        assert recovered.counters.as_dict() == oracle.counters[lsn], (
            f"counters diverged at kill point lsn={lsn} ({engine_name})"
        )
        recovered.close()


@pytest.mark.parametrize(
    "engine_name,storage",
    [
        ("ita", "bisect"),
        ("ita", "columnar"),
        ("sharded-ita-3", "bisect"),
        ("sharded-ita-3", "columnar"),
    ],
)
def test_recovered_services_continue_the_tape_identically(
    engine_name, storage, tmp_path
):
    """From sampled kill points the recovered service must finish the tape
    with the exact change streams, alert streams and final results of the
    uninterrupted run -- including across automatic checkpoints."""
    tape = strip_checkpoints(generate_tape(5227, tie_heavy=False, num_ops=56))
    continue_from_kill_points(tape, engine_name, storage, tmp_path)


@pytest.mark.parametrize("engine_name,storage", [("ita", "columnar"), ("sharded-ita-2", "bisect")])
def test_a_tie_heavy_tape_recovers_and_continues_identically(engine_name, storage, tmp_path):
    """Scores tie all the time on this tape; recovering from a checkpoint
    that recorded each query's state still continues it exactly."""
    tape = strip_checkpoints(generate_tape(5227, tie_heavy=True, num_ops=56))
    continue_from_kill_points(tape, engine_name, storage, tmp_path)


def continue_from_kill_points(tape, engine_name, storage, tmp_path) -> None:
    """The snapshot oracle at sampled kill points, then the tape's tail."""
    policy = DurabilityPolicy(fsync="never", checkpoint_every=9, segment_max_records=8)
    root = tmp_path / "live"
    captures = tmp_path / "killpoints"
    captures.mkdir()
    capture_dirs: Dict[int, Any] = {}
    oracle = run_durable_sync(
        tape, durable_spec(engine_name, policy, storage), root, captures, capture_dirs
    )

    lsns = sorted(capture_dirs)
    sampled = lsns[:: max(1, len(lsns) // 7)]
    for lsn in sampled:
        recovered = MonitoringService.open(capture_dirs[lsn])
        assert recovered.snapshot() == oracle.snapshots[lsn], (
            f"snapshot diverged at kill point lsn={lsn} ({engine_name})"
        )
        next_index, active, alert_counts = oracle.boundaries[lsn]
        changes_before = sum(
            1 for op in tape[:next_index] if op[0] == "ingest"
        )
        tail_changes, tail_alerts, final_digest = continue_tape(
            recovered, tape, next_index, active
        )
        assert tail_changes == oracle.changes[changes_before:], (
            f"continuation change stream diverged from lsn={lsn} ({engine_name})"
        )
        for query_id, stream in tail_alerts.items():
            expected = oracle.alerts.get(query_id, [])[alert_counts.get(query_id, 0) :]
            assert stream == expected, (
                f"continuation alerts diverged for query {query_id} "
                f"from lsn={lsn} ({engine_name})"
            )
        assert final_digest == oracle.final_digest, (
            f"final results diverged from lsn={lsn} ({engine_name})"
        )
        recovered.close()


def test_async_ingest_lane_logs_before_ack(tmp_path):
    """Crashing the asynchronous ingest lane at any record boundary must
    recover to the uninterrupted run's state: every batch is logged before
    it enters the lane."""
    tape = strip_checkpoints(generate_tape(6173, tie_heavy=False, num_ops=44))
    policy = DurabilityPolicy(fsync="never", checkpoint_every=12, segment_max_records=8)
    spec = durable_spec("sharded-ita-2", policy)
    root = tmp_path / "live"
    captures = tmp_path / "killpoints"
    captures.mkdir()
    capture_dirs: Dict[int, Any] = {}
    snapshots: Dict[int, Dict[str, Any]] = {}

    async def replay() -> None:
        service = MonitoringService.open(root, spec)
        async with service.serve(queue_depth=2, batch_size=5) as serving:
            for index, op in enumerate(tape):
                kind = op[0]
                if kind == "subscribe":
                    _, query_id, weights, k = op
                    await serving.subscribe(
                        ContinuousQuery(query_id=query_id, weights=weights, k=k)
                    )
                elif kind == "unsubscribe":
                    _, query_id = op
                    await serving.unsubscribe(query_id)
                elif kind == "ingest":
                    _, documents = op
                    await serving.ingest(documents)
                elif kind == "checkpoint":
                    await serving.checkpoint()
                lsn = serving.durability.last_lsn
                snapshots[lsn] = await serving.snapshot()
                target = captures / str(lsn)
                if target.exists():
                    shutil.rmtree(target)
                shutil.copytree(root, target)
                capture_dirs[lsn] = target
        service.close()

    asyncio.run(replay())

    assert len(capture_dirs) >= 20
    for lsn, directory in sorted(capture_dirs.items()):
        recovered = MonitoringService.open(directory)
        assert recovered.snapshot() == snapshots[lsn], (
            f"async kill point lsn={lsn} diverged"
        )
        recovered.close()


# --------------------------------------------------------------------------- #
# hibernation kill points (the query-scale layer's WAL records)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "engine_name,storage",
    [("ita", "bisect"), ("ita", "columnar"), ("sharded-ita-2", "bisect")],
)
def test_hibernation_kill_points_recover_bit_identically(
    engine_name, storage, tmp_path, monkeypatch
):
    """Crashing at *every* WAL record boundary of a hibernating service --
    including the boundaries between a single op's ``wake``, main and
    ``hibernate`` records -- must recover deterministically.

    With hibernation one op can log several records ([wakes][main op]
    [hibernates]), so the per-op captures of the suites above no longer
    visit every boundary; here the directory is captured after every
    individual append instead.  Two oracle regimes:

    * a cut at or after the op's **main** record: replaying the main
      record re-derives the op's hibernation decisions through the normal
      event path (explicit ``hibernate`` records are idempotent), so the
      recovered snapshot and counters must equal the uninterrupted run's
      state at that op's end, bit for bit;
    * a cut inside the **pre-op wake sequence** (the main record never
      became durable, so the client never got an ack): the recovered
      service, after the op is re-submitted and the tape finished, must
      reproduce the uninterrupted run's remaining change streams,
      observation digests, final results and final snapshot exactly --
      the already-durable wakes are absorbed by the retry.
    """
    from repro.durability.log import DurabilityLog
    from repro.queryscale import QueryScaleOptions
    from tests.queryscale.test_dedup_properties import generate_dedup_tape

    tape = generate_dedup_tape(8423, num_ops=56, include_checkpoints=False)
    spec = durable_spec(engine_name, FAST_NO_CHECKPOINT, storage).with_overrides(
        queryscale=QueryScaleOptions(dedup=True, hibernate_after=4)
    )
    root = tmp_path / "live"
    captures = tmp_path / "killpoints"
    captures.mkdir()

    #: lsn -> (capture dir, record op, tape-op index, active ids at op start)
    record_cuts: Dict[int, Tuple[Any, str, int, Tuple[int, ...]]] = {}
    current = {"index": -1, "active": ()}
    original_append = DurabilityLog._append

    def capturing_append(self, payload, shard=None):
        lsn = original_append(self, payload, shard)
        target = captures / str(lsn)
        shutil.copytree(root, target)
        record_cuts[lsn] = (target, payload["op"], current["index"], current["active"])
        return lsn

    op_end_snapshots: Dict[int, Dict[str, Any]] = {}
    op_end_counters: Dict[int, Dict[str, int]] = {}
    op_end_lsns: Dict[int, int] = {}
    oracle_changes: List[List[Tuple]] = []
    oracle_digests: List[Dict[int, Tuple]] = []

    def run_ops(service, handles, tape_slice, start_index, changes, digests):
        """Replay tape ops the same way live and continuation runs must."""
        for offset, op in enumerate(tape_slice):
            current["index"] = start_index + offset
            current["active"] = tuple(sorted(handles))
            kind = op[0]
            if kind == "subscribe":
                _, query_id, weights, k = op
                handles[query_id] = service.subscribe(
                    ContinuousQuery(query_id=query_id, weights=weights, k=k)
                )
            elif kind == "unsubscribe":
                _, query_id = op
                handles.pop(query_id).unsubscribe()
            elif kind == "ingest":
                _, documents = op
                batch_changes = service.ingest(documents)
                changes.append(
                    [normalize_change(change) for change in batch_changes]
                )
            elif kind == "observe":
                # Waking every hibernated query is part of the op: the
                # continuation runs must retrace it or later change
                # streams diverge.
                digests.append(digest_results(service.results()))
            else:  # pragma: no cover - tape generator bug
                raise AssertionError(f"unknown op {kind!r}")
            yield start_index + offset

    with monkeypatch.context() as patched:
        patched.setattr(DurabilityLog, "_append", capturing_append)
        service = MonitoringService.open(root, spec)
        handles: Dict[int, Any] = {}
        for index in run_ops(service, handles, tape, 0, oracle_changes, oracle_digests):
            op_end_snapshots[index] = service.snapshot()
            op_end_counters[index] = service.counters.as_dict()
            op_end_lsns[index] = service.durability.last_lsn
        final_digest = digest_results(service.results())
        final_snapshot = service.snapshot()
        service.close()

    kinds = {op for _, op, _, _ in record_cuts.values()}
    assert "hibernate" in kinds and "wake" in kinds, (
        "the tape must actually produce hibernate and wake records"
    )
    wake_cuts = [lsn for lsn, (_, op, _, _) in record_cuts.items() if op == "wake"]
    assert len(wake_cuts) >= 3, "too few wake-record kill points"

    for lsn, (directory, record_op, index, active) in sorted(record_cuts.items()):
        recovered = MonitoringService.open(directory)
        assert recovered.last_recovery.last_lsn == lsn
        recovered.queryscale.check_invariants()
        if record_op == "wake" and lsn < op_end_lsns[index]:
            # Pre-op cut: re-submit the in-flight op and finish the tape.
            tail_changes: List[List[Tuple]] = []
            tail_digests: List[Dict[int, Tuple]] = []
            tail_handles = {
                query_id: recovered.handle(query_id) for query_id in active
            }
            for _ in run_ops(
                recovered, tail_handles, tape[index:], index, tail_changes, tail_digests
            ):
                pass
            ingests_before = sum(1 for op in tape[:index] if op[0] == "ingest")
            observes_before = sum(1 for op in tape[:index] if op[0] == "observe")
            assert tail_changes == oracle_changes[ingests_before:], (
                f"retry change stream diverged from lsn={lsn} ({engine_name})"
            )
            assert tail_digests == oracle_digests[observes_before:], (
                f"retry digests diverged from lsn={lsn} ({engine_name})"
            )
            assert digest_results(recovered.results()) == final_digest
            assert recovered.snapshot() == final_snapshot, (
                f"final snapshot diverged after retry from lsn={lsn} ({engine_name})"
            )
        else:
            # The main record is durable: recovery replays it and
            # re-derives the op's wake/hibernate transitions in full.
            assert recovered.snapshot() == op_end_snapshots[index], (
                f"snapshot diverged at kill point lsn={lsn} "
                f"({record_op!r} record, {engine_name})"
            )
            assert recovered.counters.as_dict() == op_end_counters[index], (
                f"counters diverged at kill point lsn={lsn} "
                f"({record_op!r} record, {engine_name})"
            )
        recovered.close()
