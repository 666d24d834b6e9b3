"""MonitoringService.open: fresh durable services and clean recoveries."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import DurabilityPolicy
from repro.durability.log import (
    MANIFEST_NAME,
    DurabilityLog,
    _json_pieces,
    read_manifest,
    write_json_atomic,
)
from repro.durability.wal import segment_paths
from repro.exceptions import (
    ConfigurationError,
    DurabilityError,
    ServiceError,
    WindowError,
)
from repro.query.query import ContinuousQuery
from repro.service import EngineSpec, MonitoringService, WindowSpec
from tests.conftest import make_document

FAST = DurabilityPolicy(fsync="never", checkpoint_every=0)


def open_ita(path, window=WindowSpec.count(8), policy=FAST, **kwargs):
    spec = EngineSpec(kind="ita", window=window, durability=policy)
    return MonitoringService.open(path, spec, **kwargs)


class TestOpenFresh:
    def test_creates_manifest_and_initial_checkpoint(self, tmp_path):
        service = open_ita(tmp_path)
        manifest = read_manifest(tmp_path)
        assert manifest["layout"] == "single"
        assert manifest["checkpoint"]["lsn"] == 0
        assert (tmp_path / manifest["checkpoint"]["file"]).is_file()
        assert service.durability is not None
        assert service.last_recovery is None
        service.close()

    def test_policy_comes_from_the_spec(self, tmp_path):
        policy = DurabilityPolicy(fsync="never", checkpoint_every=7)
        service = open_ita(tmp_path, policy=policy)
        assert service.durability.policy == policy
        assert read_manifest(tmp_path)["policy"] == policy.to_dict()
        service.close()

    def test_explicit_policy_overrides_the_spec(self, tmp_path):
        override = DurabilityPolicy(fsync="never", checkpoint_every=99)
        service = open_ita(tmp_path, durability=override)
        assert service.durability.policy.checkpoint_every == 99
        service.close()

    def test_create_over_existing_state_rejected(self, tmp_path):
        open_ita(tmp_path).close()
        service = MonitoringService(EngineSpec())
        with pytest.raises(DurabilityError):
            DurabilityLog.create(service, tmp_path)

    def test_checkpoint_without_durability_rejected(self):
        with MonitoringService() as service:
            with pytest.raises(ServiceError):
                service.checkpoint()

    def test_invalid_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            open_ita(tmp_path, policy=DurabilityPolicy(fsync="sometimes"))


class TestRecoveryRoundTrip:
    def test_empty_service_reopens(self, tmp_path):
        open_ita(tmp_path).close()
        service = MonitoringService.open(tmp_path)
        assert service.last_recovery.replayed_records == 0
        assert service.query_ids() == []
        service.close()

    def test_vocabulary_survives_recovery(self, tmp_path):
        service = open_ita(tmp_path)
        service.ingest(["alpha beta gamma", "beta gamma delta"])
        vocabulary = list(service.vocabulary)
        del service  # crash: no close, no checkpoint

        recovered = MonitoringService.open(tmp_path)
        assert list(recovered.vocabulary) == vocabulary
        # A query subscribed only *after* the crash must agree with the
        # pre-crash documents on term ids.
        handle = recovered.subscribe("beta gamma", k=2)
        assert sorted(entry.doc_id for entry in handle.result()) == [0, 1]
        assert all(entry.score > 0 for entry in handle.result())
        recovered.close()

    def test_unsubscribe_is_replayed(self, tmp_path):
        service = open_ita(tmp_path)
        keep = service.subscribe(ContinuousQuery(query_id=1, weights={0: 1.0}, k=1))
        drop = service.subscribe(ContinuousQuery(query_id=2, weights={1: 1.0}, k=1))
        service.ingest([make_document(0, {0: 0.4, 1: 0.6}, arrival_time=1.0)])
        drop.unsubscribe()
        del service

        recovered = MonitoringService.open(tmp_path)
        assert recovered.query_ids() == [keep.query_id]
        recovered.close()

    def test_advance_time_is_replayed(self, tmp_path):
        service = open_ita(tmp_path, window=WindowSpec.time(5.0))
        service.ingest(make_document(0, {0: 0.5}, arrival_time=1.0))
        service.advance_time(20.0)
        assert len(service.window) == 0
        del service

        recovered = MonitoringService.open(tmp_path)
        assert len(recovered.window) == 0
        assert recovered.window.clock == 20.0
        with pytest.raises(WindowError):
            recovered.ingest(make_document(1, {0: 0.5}, arrival_time=3.0))
        recovered.close()

    def test_recovered_service_keeps_logging(self, tmp_path):
        service = open_ita(tmp_path)
        service.ingest("first doc about storms")
        del service
        recovered = MonitoringService.open(tmp_path)
        recovered.ingest("second doc about storms")
        del recovered
        final = MonitoringService.open(tmp_path)
        assert len(final.window) == 2
        assert final.last_recovery.replayed_records == 2
        final.close()

    def test_raising_callback_leaves_wal_and_engine_agreeing(self, tmp_path):
        """A callback that raises on event 1 of 4 propagates after the
        whole batch was logged *and* applied: recovery finds nothing the
        live engine had not seen."""
        service = open_ita(tmp_path)

        def explode(alert):
            if alert.document.doc_id == 1:
                raise RuntimeError("subscriber bug")

        service.subscribe(ContinuousQuery(0, {1: 1.0}, k=1), on_change=explode)
        batch = [
            make_document(doc_id, {1: 0.1 * (doc_id + 1)}, arrival_time=float(doc_id))
            for doc_id in range(4)
        ]
        with pytest.raises(RuntimeError, match="subscriber bug"):
            service.ingest(batch)
        assert len(service.window) == 4
        live = service.results()
        assert [entry.doc_id for entry in live[0]] == [3]
        del service

        recovered = MonitoringService.open(tmp_path)
        assert recovered.last_recovery.replayed_documents == 4
        assert recovered.results() == live
        recovered.close()

    def test_backwards_batch_rejected_before_logging(self, tmp_path):
        service = open_ita(tmp_path)
        service.ingest(make_document(0, {0: 0.5}, arrival_time=10.0))
        before = service.durability.last_lsn
        with pytest.raises(WindowError):
            service.ingest(make_document(1, {0: 0.5}, arrival_time=4.0))
        assert service.durability.last_lsn == before  # nothing was logged
        del service
        MonitoringService.open(tmp_path).close()  # and recovery still works


class TestCheckpoints:
    def test_explicit_checkpoint_truncates_the_wal(self, tmp_path):
        service = open_ita(tmp_path)
        for index in range(6):
            service.ingest(f"document number {index} about markets")
        old_segments = segment_paths(tmp_path / "wal")
        assert sum(1 for s in old_segments for _ in open(s)) >= 6
        service.checkpoint()
        remaining = segment_paths(tmp_path / "wal")
        assert all(open(s).read() == "" for s in remaining)
        del service

        recovered = MonitoringService.open(tmp_path)
        assert recovered.last_recovery.replayed_records == 0
        assert len(recovered.window) == 6
        recovered.close()

    def test_automatic_checkpoint_fires_on_interval(self, tmp_path):
        policy = DurabilityPolicy(fsync="never", checkpoint_every=4)
        service = open_ita(tmp_path, policy=policy)
        for index in range(9):
            service.ingest(f"auto checkpoint document {index}")
        manifest = read_manifest(tmp_path)
        assert manifest["checkpoint"]["lsn"] >= 8
        assert service.durability.records_since_checkpoint <= 1
        del service
        recovered = MonitoringService.open(tmp_path)
        assert recovered.last_recovery.replayed_records <= 1
        assert len(recovered.window) == 8  # window of 8, 9 ingested
        recovered.close()

    def test_stale_checkpoint_with_older_manifest_recovers(self, tmp_path):
        # Crash between checkpoint-file write and manifest update: the
        # manifest still points at the previous checkpoint and the WAL
        # still holds the tail -- recovery must replay it.
        service = open_ita(tmp_path)
        service.ingest("one lonely document")
        snapshot = service.snapshot()
        (tmp_path / "checkpoint-0000000099.json").write_text(json.dumps(snapshot))
        del service
        recovered = MonitoringService.open(tmp_path)
        assert recovered.last_recovery.checkpoint_lsn == 0
        assert recovered.last_recovery.replayed_records == 1
        recovered.close()

    def test_manifest_without_checkpoint_rejected(self, tmp_path):
        service = open_ita(tmp_path)
        service.close()
        manifest = read_manifest(tmp_path)
        manifest["checkpoint"] = None
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(DurabilityError):
            MonitoringService.open(tmp_path)


#: JSON-compatible values with everything the piecewise writer branches on:
#: lists on both sides of its run length, empty containers, non-string keys.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, min_size=60, max_size=70)
        | st.dictionaries(st.text(max_size=3), children, max_size=4)
        | st.dictionaries(st.integers(0, 9), children, max_size=3)
    ),
    max_leaves=12,
)


class TestAtomicJsonWriter:
    @settings(max_examples=150, deadline=None)
    @given(JSON_VALUES)
    def test_pieces_join_to_the_one_shot_encoding(self, value):
        assert "".join(_json_pieces(value)) == json.dumps(value, separators=(",", ":"))

    def test_long_lists_are_cut_into_runs_and_nothing_is_left_behind(self, tmp_path):
        payload = {"engine": {"documents": [{"doc_id": index} for index in range(200)]}, "shards": [{}, []]}
        assert max(piece.count("doc_id") for piece in _json_pieces(payload)) == 64
        write_json_atomic(tmp_path / "state.json", payload)
        assert json.loads((tmp_path / "state.json").read_text()) == payload
        assert [path.name for path in tmp_path.iterdir()] == ["state.json"]


class TestSpecSerialisation:
    def test_durability_policy_round_trips_on_the_spec(self):
        spec = EngineSpec(
            kind="ita",
            window=WindowSpec.count(100),
            durability=DurabilityPolicy(fsync="always", checkpoint_every=50),
        )
        assert EngineSpec.from_dict(spec.to_dict()) == spec

    def test_specs_without_durability_stay_compatible(self):
        spec = EngineSpec()
        assert "durability" not in spec.to_dict()
        assert EngineSpec.from_dict(spec.to_dict()).durability is None


class TestRepeatedCrashes:
    def test_torn_tail_is_repaired_so_a_second_crash_recovers(self, tmp_path):
        # Crash 1 leaves a torn record; recovery drops *and truncates* it.
        # The resumed writer then appends to a fresh segment, and a second
        # crash must still recover -- an un-repaired torn line would sit
        # in a non-final segment and read as corruption.
        service = open_ita(tmp_path)
        service.ingest(["first crash survivor", "second crash survivor"])
        del service
        segment = segment_paths(tmp_path / "wal")[-1]
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) - 9])  # tear the last record

        recovered = MonitoringService.open(tmp_path)
        assert recovered.last_recovery.replayed_records == 0  # torn ingest dropped
        recovered.ingest("post recovery document")
        del recovered  # crash 2, records now span two segments

        final = MonitoringService.open(tmp_path)
        assert final.last_recovery.replayed_records == 1
        assert len(final.window) == 1
        final.close()

    def test_many_crash_recover_cycles_accumulate_state(self, tmp_path):
        open_ita(tmp_path)  # crash immediately after creation
        for index in range(4):
            service = MonitoringService.open(tmp_path)
            service.ingest(f"cycle {index} document about rates")
            del service  # crash every cycle
        final = MonitoringService.open(tmp_path)
        assert final.last_recovery.replayed_records == 4
        assert len(final.window) == 4
        final.close()


class TestAsyncDurableValidation:
    def test_backwards_async_batch_rejected_before_logging(self, tmp_path):
        import asyncio

        async def scenario():
            service = open_ita(tmp_path, window=WindowSpec.count(8))
            async with service.serve(batch_size=4) as serving:
                await serving.ingest(
                    [make_document(0, {0: 0.5}, arrival_time=5.0)]
                )
                before = serving.durability.last_lsn
                with pytest.raises(WindowError):
                    # Second element regresses behind the first *within*
                    # one submission batch.
                    await serving.ingest(
                        [
                            make_document(1, {0: 0.5}, arrival_time=6.0),
                            make_document(2, {0: 0.5}, arrival_time=2.0),
                        ]
                    )
                assert serving.durability.last_lsn == before  # nothing logged
            service.close()

        asyncio.run(scenario())
        # The poisoned batch never reached the WAL, so the directory
        # stays recoverable.
        recovered = MonitoringService.open(tmp_path)
        assert len(recovered.window) == 1
        recovered.close()

    def test_batch_behind_inflight_logged_clock_rejected(self, tmp_path):
        import asyncio

        async def scenario():
            service = open_ita(tmp_path, window=WindowSpec.count(8))
            async with service.serve(batch_size=2) as serving:
                # Batch 1 is logged (and may still sit in the lane); a
                # second batch behind the *logged* clock must be rejected
                # even if the engine window has not applied batch 1 yet.
                await serving.ingest(
                    [
                        make_document(0, {0: 0.5}, arrival_time=5.0),
                        make_document(1, {0: 0.5}, arrival_time=7.0),
                    ]
                )
                with pytest.raises(WindowError):
                    await serving.ingest(
                        [make_document(2, {0: 0.5}, arrival_time=6.0)]
                    )
            service.close()

        asyncio.run(scenario())
        recovered = MonitoringService.open(tmp_path)
        assert len(recovered.window) == 2
        recovered.close()


@pytest.mark.parametrize("facade", ["sync", "async"])
def test_backwards_advance_time_on_a_dedup_service_is_refused_unlogged(facade, tmp_path):
    """The engine refuses time going backwards before anything reaches the
    WAL, with the query-scale layer on as without it."""
    import asyncio

    from repro.queryscale import QueryScaleOptions

    spec = EngineSpec(
        kind="ita", window=WindowSpec.time(5.0), queryscale=QueryScaleOptions(), durability=FAST
    )
    service = MonitoringService.open(tmp_path, spec)
    service.subscribe(ContinuousQuery(0, {0: 1.0}, k=1))
    service.subscribe(ContinuousQuery(1, {0: 1.0}, k=1))
    service.ingest(make_document(0, {0: 0.5}, arrival_time=10.0))
    before = service.durability.last_lsn

    if facade == "sync":
        with pytest.raises(WindowError):
            service.advance_time(4.0)
    else:

        async def scenario():
            async with service.serve() as serving:
                with pytest.raises(WindowError):
                    await serving.advance_time(4.0)

        asyncio.run(scenario())
    assert service.durability.last_lsn == before
    service.close()

    recovered = MonitoringService.open(tmp_path)
    assert recovered.window.clock == 10.0
    assert [entry.doc_id for entry in recovered.result(1)] == [0]
    recovered.close()
