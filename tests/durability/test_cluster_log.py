"""A cluster's durability directory: one log, and the per-shard logs of old."""

import shutil
from pathlib import Path

from repro.durability import DurabilityPolicy
from repro.durability.log import read_manifest, wal_record_count
from repro.service import EngineSpec, MonitoringService, WindowSpec
from tests.conftest import TieFreeCase

#: written by ``sharded`` services before the one log (see legacy_ops)
LEGACY = Path(__file__).parent.parent / "data" / "sharded_wal_9d1e55e"
POLICY = DurabilityPolicy(fsync="never", checkpoint_every=0, segment_max_records=8)
CASE = TieFreeCase(seed=23, num_queries=6, num_documents=48)


def cluster_spec(kind="sharded", durability=None):
    return EngineSpec(
        kind=kind,
        num_shards=2,
        window=WindowSpec.count(16),
        placement="round-robin",
        durability=durability,
    )


def legacy_ops(service):
    """The script that wrote the fixture (a checkpoint after the first
    unsubscribe when the service is durable), up to its last record."""
    for query in CASE.queries[:4]:
        service.subscribe(query)
    for start in range(0, 20, 5):
        service.ingest(CASE.documents[start : start + 5])
    service.unsubscribe(1)
    if service.durability is not None:
        service.durability.checkpoint()
    for query in CASE.queries[4:]:
        service.subscribe(query)
    for start in range(20, 40, 4):
        service.ingest(CASE.documents[start : start + 4])
    service.unsubscribe(2)


def test_a_cluster_appends_every_record_once_to_one_log(tmp_path):
    service = MonitoringService.open(tmp_path, cluster_spec(durability=POLICY))
    legacy_ops(service)
    checkpoint_lsn = read_manifest(tmp_path)["checkpoint"]["lsn"]
    assert wal_record_count(tmp_path) == service.durability.last_lsn - checkpoint_lsn
    assert read_manifest(tmp_path)["layout"] == "single"
    assert not list(tmp_path.glob("shard-*"))
    service.close()


def test_per_shard_logs_recover_and_keep_accepting_ingest(tmp_path):
    directory = tmp_path / "legacy"
    shutil.copytree(LEGACY, directory)
    expected = MonitoringService(cluster_spec())
    legacy_ops(expected)

    recovered = MonitoringService.open(directory)
    assert recovered.last_recovery.replayed_records == 8
    assert recovered.results() == expected.results()
    assert recovered.engine.assignment() == expected.engine.assignment()
    recovered.ingest(CASE.documents[40:44])
    expected.ingest(CASE.documents[40:44])
    assert recovered.results() == expected.results()
    recovered.close()

    # The shard logs and the one log the resumed service appended to.
    again = MonitoringService.open(directory)
    assert again.results() == expected.results()
    again.durability.checkpoint()
    assert not list(directory.glob("shard-*"))
    again.ingest(CASE.documents[44:])
    expected.ingest(CASE.documents[44:])
    again.close()

    last = MonitoringService.open(directory)
    assert last.results() == expected.results()
    assert last.engine.assignment() == expected.engine.assignment()
    assert read_manifest(directory)["layout"] == "single"
    last.close()
    expected.close()


def test_a_proc_cluster_logs_like_an_in_process_one(tmp_path):
    service = MonitoringService.open(
        tmp_path / "proc", cluster_spec("sharded-proc", durability=POLICY)
    )
    try:
        legacy_ops(service)
        expected = service.results()
    finally:
        service.close()
    recovered = MonitoringService.open(tmp_path / "proc")
    try:
        assert recovered.results() == expected
        assert not list((tmp_path / "proc").glob("shard-*"))
    finally:
        recovered.close()
