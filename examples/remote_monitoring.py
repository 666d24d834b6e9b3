"""Remote monitoring: the network serving tier end to end.

Run with::

    python examples/remote_monitoring.py

The paper's server is a library living inside one process; this example
shows the network tier (:mod:`repro.net`) that turns it into a service
remote clients can hit:

1. a :class:`~repro.net.MonitoringServer` serving a
   :class:`~repro.MonitoringService` over TCP -- here backed by the
   out-of-process cluster (``kind="sharded-proc"``): two worker
   *processes*, each owning one engine shard and nothing else (the
   coordinator re-seeds one that dies), driven over framed RPC,
2. a :class:`~repro.net.RemoteMonitoringClient` with the same facade
   API: ``subscribe``/``ingest``/``result``/``changes`` work unchanged
   across the network, and alerts are drained by polling,
3. typed errors crossing the wire (``except UnknownQueryError`` works
   remotely),
4. graceful shutdown: the server drains and the workers exit.

(The production entry point for step 1 is the CLI:
``python -m repro.workloads.cli serve --engine sharded-proc-2``.)
"""

from __future__ import annotations

import threading

from repro import EngineSpec, MonitoringService, WindowSpec
from repro.exceptions import UnknownQueryError
from repro.net import MonitoringServer, RemoteMonitoringClient

HEADLINES = [
    "Stocks rally as the central bank holds interest rates steady",
    "Severe storm warning issued for the northern coast tonight",
    "Markets tumble on fresh inflation data and rate-hike fears",
    "Flood defences hold as the storm passes the coastal towns",
    "Tech earnings beat expectations, lifting the broader market",
    "Central bank hints at rate cuts if inflation keeps cooling",
]


def main() -> None:
    # 1. The server: an out-of-process cluster behind the service facade,
    #    behind TCP.  port=0 binds an ephemeral port.
    spec = EngineSpec(kind="sharded-proc", num_shards=2, window=WindowSpec.count(4))
    service = MonitoringService(spec)
    server = MonitoringServer(service, host="127.0.0.1", port=0)
    host, port = server.address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"serving on {host}:{port}")

    # 2. The client: the same facade, over the wire.
    with RemoteMonitoringClient(host, port) as client:
        stats = client.stats()
        print(f"server engine: {stats['engine']}, workers: {stats['worker_pids']}\n")

        markets = client.subscribe("stock market rates", k=2)
        weather = client.subscribe("storm flood warning", k=2)
        client.ingest(HEADLINES)

        for query_id, result in sorted(client.results().items()):
            entries = ", ".join(f"doc {e.doc_id} ({e.score:.3f})" for e in result)
            print(f"remote query {query_id}: {entries}")

        # Alerts are poll-based: the server buffers per-subscription
        # changes, changes() drains them in one RPC.
        alerts = list(markets.changes())
        print(f"\nquery {markets.query_id} saw {len(alerts)} alerts; last three:")
        for alert in alerts[-3:]:
            entered = ", ".join(f"doc {e.doc_id}" for e in alert.change.entered) or "-"
            left = ", ".join(f"doc {e.doc_id}" for e in alert.change.left) or "-"
            print(f"  entered: {entered:<12} left: {left}")

        # 3. Errors stay typed across the wire.
        weather.unsubscribe()
        try:
            client.result(weather.query_id)
        except UnknownQueryError as error:
            print(f"\ntyped error across the wire: {error}")

        # 4. Graceful stop: drain, stop the workers, exit.
        client.shutdown_server()
    thread.join(timeout=10.0)
    print("server stopped, workers shut down cleanly")


if __name__ == "__main__":
    main()
