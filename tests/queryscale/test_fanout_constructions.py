"""What one canonical change costs to deliver at fan-out F -- counts, never times.

The engine reports a canonical change once; dedup re-labels it once per
subscriber and the dispatcher wraps each of those in one alert.  The F
subscriber changes share the canonical change's ``entered`` / ``left``
tuples (that is what their immutability is kept for), and no entry is
built that the engine did not report.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.alerting import Alert
from repro.core.base import ResultChange
from repro.query.query import ContinuousQuery
from repro.query.result import ResultEntry
from repro.queryscale import QueryScaleOptions
from repro.service import EngineSpec, MonitoringService, WindowSpec
from tests.conftest import count_constructions, make_document

FANOUT = 7
NUM_TERMS = 12


def test_each_value_is_built_once(monkeypatch):
    rng = random.Random(2009)

    def composition(max_terms):
        terms = rng.sample(range(NUM_TERMS), rng.randint(1, max_terms))
        return {term: rng.uniform(0.05, 1.0) for term in terms}

    spec = EngineSpec(window=WindowSpec.count(9), queryscale=QueryScaleOptions())
    with MonitoringService(spec) as service:
        alerts = []
        for query_id in range(5 * FANOUT):
            if query_id % FANOUT == 0:
                weights = composition(3)
            service.subscribe(
                ContinuousQuery(query_id=query_id, weights=dict(weights), k=2),
                on_change=alerts.append,
            )
        assert service.queryscale.canonical_count == 5

        canonical = []
        expand = service.queryscale.expand_changes

        def recording_expand(changes):
            canonical.extend(changes)
            return expand(changes)

        service.dispatcher.set_transform(recording_expand)
        built = count_constructions(monkeypatch, ResultEntry, ResultChange, Alert)
        for doc_id in range(60):
            service.ingest(make_document(doc_id, composition(4), arrival_time=float(doc_id)))
        monkeypatch.undo()

    assert len(canonical) > 30
    assert len(alerts) == len(canonical) * FANOUT
    assert built[ResultChange] == len(canonical) * (FANOUT + 1)
    assert built[Alert] == len(canonical) * FANOUT
    assert built[ResultEntry] == sum(len(change.entered) + len(change.left) for change in canonical)

    # at least one of a change's two tuples is non-empty, so the identities
    # of the pair name one canonical change while ``canonical`` keeps it alive
    clones = Counter((id(alert.change.entered), id(alert.change.left)) for alert in alerts)
    assert len(clones) == len(canonical)
    for change in canonical:
        assert clones[id(change.entered), id(change.left)] == FANOUT
