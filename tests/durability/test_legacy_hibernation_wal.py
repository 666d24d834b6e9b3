"""A log written while cold-query hibernation existed still recovers.

``tests/data/hibernate_wal_a104e60`` was written at ``a104e60``, the last
commit with hibernation, by a durable ``ita`` service with
``QueryScaleOptions(hibernate_after=2)`` and :data:`POLICY`:
:func:`before_checkpoint`, then ``service.durability.checkpoint()``, then
:func:`after_checkpoint`, then ``close()``.  Every query's scores over
:data:`TEXTS` are distinct, so the tape is tie-free.

* Its checkpoint records canonicals 0 and 1 as hibernated: off the
  engine, with their query, shard and stored top-k.
* Its WAL tail holds ``hibernate`` records and ``wake`` records, among
  them the wake-on-read of canonical 2 by ``service.result(3)``.

``expected.json`` beside the log holds the results and query ids that a
never-hibernating service (``QueryScaleOptions()``, same spec otherwise)
reached on the same operations at ``a104e60``.
"""

import json
import shutil
from pathlib import Path

from repro.durability import DurabilityPolicy
from repro.durability.recovery import _replay_record
from repro.durability.wal import segment_paths
from repro.queryscale import QueryScaleOptions
from repro.service import EngineSpec, MonitoringService, WindowSpec

LEGACY = Path(__file__).parent.parent / "data" / "hibernate_wal_a104e60"
POLICY = DurabilityPolicy(fsync="never", checkpoint_every=0, segment_max_records=4)
TEXTS = [
    "breaking news about markets",
    "storm warning for the coast tonight",
    "market rally on rate news lifts shares",
    "severe storm warning issued inland",
    "central bank holds rates steady despite pressure from exporters",
    "coastal towns brace for the storm with sandbags shutters and generators",
    "markets slide sharply as rates climb again across regional exchanges today",
    "flood watch follows the storm surge along northern rivers and coastal creeks",
    "bank earnings lift the market as lenders report record fees and lower losses this quarter",
    "storm damage closes coastal roads near harbour villages overnight while crews clear fallen trees",
    "rate cut hopes fade for markets amid stubborn inflation figures reported by statistics office economists yesterday",
    "inland rivers crest after the storm",
    "bank stocks rally on the news",
    "storm passes out to sea leaving calm skies",
    "quiet weekend for traders",
    "harbour reopens after the storm as ferries resume crossings and fishing boats return home safely today",
]


def before_checkpoint(service):
    service.subscribe("market news", k=1)
    service.subscribe("storm warning", k=1)
    service.subscribe("market news", k=1)
    service.subscribe("bank rates", k=2)
    service.ingest(TEXTS[0:4])
    service.ingest(TEXTS[4:6])
    service.ingest(TEXTS[6])


def after_checkpoint(service):
    service.ingest(TEXTS[7:9])
    service.result(3)
    service.ingest(TEXTS[9])
    service.ingest(TEXTS[10:12])


def plain_service():
    return MonitoringService(EngineSpec(kind="ita", window=WindowSpec.count(8), queryscale=QueryScaleOptions()))


def as_lists(results):
    return {str(query_id): [[entry.doc_id, entry.score] for entry in entries] for query_id, entries in results.items()}


def test_the_fixture_holds_what_it_is_meant_to():
    (checkpoint,) = LEGACY.glob("checkpoint-*.json")
    canonicals = json.loads(checkpoint.read_text())["queryscale"]["canonicals"]
    assert [record["query_id"] for record in canonicals if record["hibernated"]] == [0, 1]
    records = [
        json.loads(line) for segment in segment_paths(LEGACY / "wal") for line in segment.read_text().splitlines()
    ]
    assert [(record["op"], record.get("query_id")) for record in records] == [
        ("wake", 0), ("wake", 1), ("ingest", None), ("hibernate", 1), ("hibernate", 2),
        ("wake", 2),  # the read of subscriber 3
        ("wake", 1), ("ingest", None), ("hibernate", 2), ("wake", 2), ("ingest", None),
    ]


def test_a_hibernating_log_recovers_with_every_query_resident(tmp_path):
    directory = tmp_path / "legacy"
    shutil.copytree(LEGACY, directory)
    expected = json.loads((LEGACY / "expected.json").read_text())

    recovered = MonitoringService.open(directory)
    assert recovered.last_recovery.replayed_records == 11
    assert recovered.spec.queryscale == QueryScaleOptions()
    recovered.queryscale.check_invariants()
    assert recovered.query_ids() == expected["query_ids"]
    assert as_lists(recovered.results()) == expected["results"]

    plain = plain_service()
    before_checkpoint(plain)
    after_checkpoint(plain)
    assert as_lists(plain.results()) == expected["results"]
    # The recovered service keeps going like one that never hibernated.
    for text in TEXTS[12:]:
        assert recovered.ingest(text) == plain.ingest(text)
    assert recovered.results() == plain.results()
    recovered.close()
    plain.close()

    again = MonitoringService.open(directory)
    again.queryscale.check_invariants()
    assert again.results() == plain.results()
    again.close()


def test_legacy_transition_records_replay_as_no_ops_without_a_queryscale_layer():
    service = MonitoringService(EngineSpec(kind="ita", window=WindowSpec.count(8)))
    service.subscribe("market news", k=1)
    service.ingest(TEXTS[0:3])
    before = service.snapshot()
    for op in ("hibernate", "wake"):
        assert _replay_record(service, {"op": op, "query_id": 0, "lsn": 9}) == 0
    assert service.snapshot() == before
    service.close()
