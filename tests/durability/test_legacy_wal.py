"""A log written before the ingest columns still recovers, and keeps growing.

``tests/data/ita_wal_0a23b08`` was written by :func:`legacy_ops` on a plain
``ita`` service at ``0a23b08``, the last commit whose ingest records carry
``"docs"`` (one JSON document record each); its final record, the ingest
of :data:`TORN`, was then torn.  A resumed service appends columnar
records after the legacy ones.
"""

import json
import shutil
from pathlib import Path

from repro.durability import DurabilityPolicy
from repro.durability.wal import segment_paths
from repro.service import EngineSpec, MonitoringService, WindowSpec

LEGACY = Path(__file__).parent.parent / "data" / "ita_wal_0a23b08"
POLICY = DurabilityPolicy(fsync="never", checkpoint_every=0, segment_max_records=4)
TEXTS = [
    "breaking news about markets",
    "storm warning for the coast",
    "market rally on rate news",
    "severe storm warning issued inland",
    "central bank holds rates steady",
    "coastal towns brace for the storm",
    "markets slide as rates climb",
    "flood watch follows the storm surge",
    "bank earnings lift the market",
    "storm damage closes coastal roads",
    "rate cut hopes fade for markets",
    "inland rivers crest after the storm",
]
#: the ingest whose record the fixture tore
TORN = ["bank stocks rally on the news", "storm passes out to sea"]


def legacy_spec(durability=None):
    return EngineSpec(kind="ita", window=WindowSpec.count(8), durability=durability)


def legacy_ops(service):
    """The script that wrote the fixture, up to its last intact record."""
    service.subscribe("market news", k=2)
    service.ingest(TEXTS[0:3])
    service.subscribe("storm warning coast", k=2)
    service.ingest(TEXTS[3:6])
    service.ingest(TEXTS[6])
    service.subscribe("bank rates", k=3)
    service.ingest(TEXTS[7:10])
    service.ingest(TEXTS[10:12])


def ops_in(directory):
    return [
        "columns" if "columns" in record else "docs" if "docs" in record else record["op"]
        for segment in segment_paths(directory / "wal")
        for record in map(json.loads, segment.read_text().splitlines())
    ]


def test_a_legacy_log_recovers_and_resumes_with_columns(tmp_path):
    directory = tmp_path / "legacy"
    shutil.copytree(LEGACY, directory)
    expected = MonitoringService(legacy_spec())
    legacy_ops(expected)

    recovered = MonitoringService.open(directory)
    assert recovered.last_recovery.replayed_records == 8
    assert recovered.last_recovery.replayed_documents == 12
    assert list(recovered.vocabulary) == list(expected.vocabulary)
    assert recovered.results() == expected.results()
    recovered.ingest(TORN)
    expected.ingest(TORN)
    assert recovered.results() == expected.results()
    recovered.close()
    # Recovery cut the torn record off the last legacy segment.
    assert ops_in(directory) == [
        "subscribe", "docs", "subscribe", "docs", "docs", "subscribe", "docs", "docs", "columns"
    ]

    # The legacy records, then the resumed service's columnar one.
    again = MonitoringService.open(directory)
    assert again.last_recovery.replayed_records == 9
    assert again.results() == expected.results()
    assert list(again.vocabulary) == list(expected.vocabulary)
    again.subscribe("storm sea", k=2)
    expected.subscribe("storm sea", k=2)
    again.close()

    last = MonitoringService.open(directory)
    assert last.results() == expected.results()
    last.close()
    expected.close()
