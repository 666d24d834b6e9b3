"""What delivering one document's alerts costs, apart from finding them.

``bench/`` times ``ingest()`` whole, and its traced run cannot see delivery
(it wraps ``dispatcher.process``; ``ingest`` calls ``dispatch_changes``).
This script sets up the ``query_scale`` workload's shape (600 distinct
queries at fan-out 10 behind ``QueryScaleOptions()`` dedup, each
subscription with the benchmark's callback), records what
``MonitoringService.ingest`` hands ``dispatcher.dispatch_changes`` -- the
engine's canonical change list and the triggering document -- for a few
hundred ingests, and replays those calls with nothing else running:

* ``expand``: ``manager.expand_changes(changes)`` alone;
* ``deliver``: ``dispatcher.dispatch_changes(changes, document)`` -- the
  expansion again, one alert per subscriber change and the callback,
  which the dispatcher calls directly (a callback subscription without
  ``max_pending`` keeps no buffer).

It prints microseconds per recorded document (median and minimum of the
repeats) and, from one more replay that counts instead of timing, how many
``ResultChange`` / ``Alert`` / ``ResultEntry`` objects were constructed per
delivered alert.  The count is the contract and is checked on every run:
one ``ResultChange`` and one ``Alert`` per alert, no ``ResultEntry``.  The
times are for reading side by side with another commit's (``PYTHONPATH``
wins over this checkout's ``src/``), alternating, on a quiet host.

    python tests/service/bench_delivery.py [--quick] [--seed N] [--documents N] [--repeats N]
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

import pytest

if __name__ == "__main__":  # run as a script: no install, and PYTHONPATH's repro wins
    ROOT = Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(ROOT))
    sys.path.append(str(ROOT / "src"))

from repro.alerting import Alert  # noqa: E402
from repro.core.base import ResultChange  # noqa: E402
from repro.query.result import ResultEntry  # noqa: E402
from repro.queryscale import QueryScaleOptions  # noqa: E402
from repro.service import EngineSpec, MonitoringService, WindowSpec  # noqa: E402
from tests.conftest import count_constructions  # noqa: E402
from tests.text.bench_text import WORKLOADS, TextGenerator  # noqa: E402

Recorded = List[Tuple[List[ResultChange], Any]]
VALUE_TYPES = (ResultChange, Alert, ResultEntry)


def record(service: MonitoringService, texts: List[str]) -> Recorded:
    """The ``dispatch_changes`` calls of one ``ingest()`` per text."""
    dispatcher = service.dispatcher
    dispatch = dispatcher.dispatch_changes
    calls: Recorded = []

    def recording(changes, document):
        calls.append((changes, document))
        return dispatch(changes, document)

    dispatcher.dispatch_changes = recording  # ingest() looks it up per call
    try:
        for text in texts:
            service.ingest(text)
    finally:
        del dispatcher.dispatch_changes
    return calls


def timed(repeats: int, replay: Callable[[], None]) -> List[float]:
    """Seconds of each of ``repeats`` replays, a collection before each."""
    seconds = []
    for _ in range(repeats):
        gc.collect()
        started = perf_counter()
        replay()
        seconds.append(perf_counter() - started)
    return seconds


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="a tenth of the size: the count check only")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--documents", type=int, default=300, help="ingests recorded and replayed")
    parser.add_argument("--repeats", type=int, default=7, help="timed replays of each stage")
    args = parser.parse_args(argv)

    workload = WORKLOADS["query_scale"]
    documents, repeats = args.documents, args.repeats
    if args.quick:
        workload, documents, repeats = workload.quick(), min(documents, 60), min(repeats, 2)
    generator = TextGenerator(args.seed, workload.shape)
    stamps: List[float] = []

    def on_alert(alert: Alert) -> None:  # the benchmark's callback
        stamps.append(perf_counter())

    spec = EngineSpec(window=WindowSpec.count(workload.window), queryscale=QueryScaleOptions())
    with MonitoringService(spec) as service:
        for text in generator.documents(workload.prefill):
            service.ingest(text)
        for text in generator.queries(workload.queries, workload.query_terms) * workload.fanout:
            service.subscribe(text, k=workload.k, on_change=on_alert)
        for text in generator.documents(200):  # the benchmark's warm-up
            service.ingest(text)
        calls = record(service, generator.documents(documents))

        expand = service.queryscale.expand_changes
        dispatch = service.dispatcher.dispatch_changes

        def replay_expand() -> None:
            for changes, _document in calls:
                expand(changes)

        def replay_deliver() -> None:
            stamps.clear()
            for changes, document in calls:
                dispatch(changes, document)

        expand_s = timed(repeats, replay_expand)
        deliver_s = timed(repeats, replay_deliver)
        delivered_before = service.dispatcher.delivered
        with pytest.MonkeyPatch.context() as patch:
            built = count_constructions(patch, *VALUE_TYPES)
            replay_deliver()
        alerts = service.dispatcher.delivered - delivered_before

    def per_document(seconds: List[float]) -> Dict[str, float]:
        return {
            "median_us": round(statistics.median(seconds) / documents * 1e6, 2),
            "min_us": round(min(seconds) / documents * 1e6, 2),
        }

    canonical = sum(len(changes) for changes, _document in calls)
    report = {
        "documents": documents,
        "subscriptions": workload.queries * workload.fanout,
        "canonical_changes_per_doc": round(canonical / documents, 3),
        "alerts_per_doc": round(alerts / documents, 3),
        "expand": per_document(expand_s),
        "deliver": per_document(deliver_s),
        "constructions_per_alert": {cls.__name__: built[cls] / max(1, alerts) for cls in VALUE_TYPES},
    }
    print(f"{documents} recorded ingests, {report['subscriptions']} subscriptions: "
          f"{report['canonical_changes_per_doc']} canonical changes -> {report['alerts_per_doc']} alerts per document")
    for stage in ("expand", "deliver"):
        print(f"{stage:>8}: {report[stage]['median_us']:8.2f} us/doc median, "
              f"{report[stage]['min_us']:8.2f} min of {repeats}")
    print("constructions per delivered alert:",
          ", ".join(f"{name} {value:g}" for name, value in report["constructions_per_alert"].items()))
    print(json.dumps(report))
    if not alerts or built != {ResultChange: alerts, Alert: alerts}:
        print(f"FAILED: {alerts} alerts delivered, constructed {dict(built)}; "
              "expected one ResultChange and one Alert per alert and no ResultEntry", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
