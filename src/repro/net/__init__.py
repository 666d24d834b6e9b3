"""Out-of-process shards and the network serving tier.

This package gives the one cluster coordinator of :mod:`repro.cluster`
shards in worker *processes*, and puts a thin socket server in front of
:class:`~repro.service.MonitoringService` so remote clients can subscribe
and ingest:

* :mod:`repro.net.protocol` -- the length-prefixed framed JSON RPC layer
  (request ids, typed errors, per-call deadlines, binary attachments)
  everything else rides;
* :mod:`repro.net.worker` -- the ``ShardWorker`` process hosting one
  engine shard and nothing else (it writes no file);
* :mod:`repro.net.remote` -- the ``RemoteShard`` stub of one worker's
  engine, which restarts and re-seeds a dead worker;
* :mod:`repro.net.cluster` -- ``ProcessClusterEngine`` (engine kind
  ``"sharded-proc"``), a ``ShardedEngine`` over ``RemoteShard`` stubs
  that spawns the workers;
* :mod:`repro.net.server` / :mod:`repro.net.client` -- the
  ``MonitoringServer`` serving tier and the ``RemoteMonitoringClient``
  facade mirroring the in-process service API;
* :mod:`repro.net.options` -- the transport/supervision knobs
  (:class:`~repro.net.options.ProcOptions`) carried by the engine spec.

The heavyweight members are imported lazily (PEP 562): importing
``repro.net`` -- which :mod:`repro.service.spec` does for the options
codec -- must not drag in the cluster/service stack.
"""

from __future__ import annotations

from repro.net.options import ProcOptions
from repro.net.protocol import RpcConnection

__all__ = [
    "ProcOptions",
    "RpcConnection",
    "ProcessClusterEngine",
    "RemoteShard",
    "ShardWorker",
    "MonitoringServer",
    "RemoteMonitoringClient",
    "RemoteQueryHandle",
]

_LAZY = {
    "ProcessClusterEngine": ("repro.net.cluster", "ProcessClusterEngine"),
    "RemoteShard": ("repro.net.remote", "RemoteShard"),
    "ShardWorker": ("repro.net.worker", "ShardWorker"),
    "MonitoringServer": ("repro.net.server", "MonitoringServer"),
    "RemoteMonitoringClient": ("repro.net.client", "RemoteMonitoringClient"),
    "RemoteQueryHandle": ("repro.net.client", "RemoteQueryHandle"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
