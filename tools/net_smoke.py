"""Network-tier smoke: serve, drive remotely, SIGKILL a worker, recover.

CI's ``net-smoke`` job runs this end to end::

    python tools/net_smoke.py --out NET_smoke.json

The driver starts the real serving stack as a subprocess --
``python -m repro.workloads.cli serve --engine sharded-proc-2`` -- parses
its ``SERVING host:port`` line, and validates the whole network path a
remote user would take:

* a :class:`~repro.net.RemoteMonitoringClient` subscribes standing
  queries and ingests a document stream, and every remote result is
  bit-identical to a local reference service fed the same stream,
* one worker process is SIGKILLed mid-stream; the coordinator restarts
  it, re-seeds it from its own mirror window and placement, and the
  continued stream stays bit-identical (``worker_restarts`` proves the
  failover actually happened),
* typed errors cross the wire (``UnknownQueryError`` after an
  unsubscribe),
* SIGTERM takes the graceful path: in-flight work drains, worker
  processes shut down, the serve process exits 0.

The measured round-trip and failover numbers are written to ``--out`` so
CI can publish them next to the benchmark artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

WORDS = (
    "market rates storm flood inflation earnings coast bank tech rally "
    "warning data fears defence towns expectations cuts cooling stream "
    "query threshold window document arrival expiry alert shard log"
).split()

ENGINE = "sharded-proc-2"
#: the single-process reference the remote results must match: the
#: cluster merges identically to one engine hosting every query
REFERENCE = "ita"
NUM_QUERIES = 6
DOCS_BEFORE_KILL = 40
DOCS_AFTER_KILL = 40


def make_stream(seed: int = 20090412):
    rng = random.Random(seed)
    queries = [" ".join(rng.sample(WORDS, 4)) for _ in range(NUM_QUERIES)]
    documents = [
        " ".join(rng.choices(WORDS, k=12))
        for _ in range(DOCS_BEFORE_KILL + DOCS_AFTER_KILL)
    ]
    return queries, documents


def result_digest(results) -> dict:
    """A comparable {query_id: [(doc_id, score)...]} image of results()."""
    return {
        int(query_id): [(entry.doc_id, entry.score) for entry in result]
        for query_id, result in results.items()
    }


def run_driver(out_path: str) -> int:
    from repro.exceptions import UnknownQueryError
    from repro.net import RemoteMonitoringClient
    from repro.service import MonitoringService, spec_from_name

    queries, documents = make_stream()
    serve = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.workloads.cli",
            "serve",
            "--engine",
            ENGINE,
            "--quiet",
        ],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        stdout=subprocess.PIPE,
        text=True,
    )
    failures = []
    document = {"schema": "repro-net-smoke/1", "engine": ENGINE}
    try:
        line = serve.stdout.readline().strip()
        if not line.startswith("SERVING "):
            print(f"serve did not announce itself: {line!r}")
            return 1
        host, _, port = line.removeprefix("SERVING ").partition(":")

        # The local reference fed the identical stream.
        reference = MonitoringService(spec_from_name(REFERENCE))
        for query in queries:
            reference.subscribe(query, k=5)

        with RemoteMonitoringClient(host, int(port)) as client:
            stats = client.stats()
            pids_before = stats["worker_pids"]
            if len(pids_before) != 2:
                failures.append(f"expected 2 workers, got {pids_before}")

            handles = [client.subscribe(query, k=5) for query in queries]
            began = time.perf_counter()
            client.ingest(documents[:DOCS_BEFORE_KILL])
            reference.ingest(documents[:DOCS_BEFORE_KILL])
            ingest_ms = (time.perf_counter() - began) * 1000.0
            if result_digest(client.results()) != result_digest(reference.results()):
                failures.append("remote results diverged before the kill")

            # Failover: SIGKILL one worker, keep streaming.
            victim = pids_before[0]
            os.kill(victim, signal.SIGKILL)
            began = time.perf_counter()
            client.ingest(documents[DOCS_BEFORE_KILL:])
            reference.ingest(documents[DOCS_BEFORE_KILL:])
            failover_ms = (time.perf_counter() - began) * 1000.0
            if result_digest(client.results()) != result_digest(reference.results()):
                failures.append("remote results diverged after the worker kill")

            stats = client.stats()
            restarts = stats["worker_restarts"]
            if sum(restarts) < 1:
                failures.append(f"no worker restart recorded: {restarts}")
            if victim in stats["worker_pids"]:
                failures.append("killed worker pid still serving")

            # Alerts drained remotely; typed errors cross the wire.
            alerts = sum(len(list(handle.changes())) for handle in handles)
            if alerts <= 0:
                failures.append("no alerts reached the remote subscriber")
            handles[0].unsubscribe()
            try:
                client.result(handles[0].query_id)
            except UnknownQueryError:
                pass
            else:
                failures.append("unsubscribed query still answers remotely")

            document.update(
                {
                    "workers": pids_before,
                    "worker_restarts": restarts,
                    "queries": len(queries),
                    "documents": len(documents),
                    "alerts_delivered": alerts,
                    "ingest_ms": round(ingest_ms, 3),
                    "failover_ingest_ms": round(failover_ms, 3),
                }
            )
        reference.close()
    finally:
        # Graceful stop: SIGTERM must drain and exit 0.
        if serve.poll() is None:
            serve.send_signal(signal.SIGTERM)
            try:
                serve.wait(timeout=30.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                serve.kill()
                serve.wait()
                failures.append("serve did not exit within 30s of SIGTERM")
        serve.stdout.close()
    if serve.returncode != 0:
        failures.append(f"serve exited {serve.returncode}, expected 0 on SIGTERM")

    document["serve_exit_code"] = serve.returncode
    document["ok"] = not failures
    document["failures"] = failures
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(json.dumps(document, indent=2))
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="NET_smoke.json")
    args = parser.parse_args(argv)
    return run_driver(args.out)


if __name__ == "__main__":
    sys.exit(main())
