"""The high-level service façade -- the recommended way to use the library.

Two pieces:

* :class:`~repro.service.spec.EngineSpec` (with :class:`~repro.service.spec.WindowSpec`
  and the engine-kind registry) -- one typed, validated, serialisable way
  to describe and construct *any* engine: ITA, the baselines, or the
  sharded cluster.
* :class:`~repro.service.service.MonitoringService` -- the façade owning
  the analyzer/vocabulary/engine/dispatcher wiring: ``subscribe()`` a
  standing query and get a :class:`~repro.service.service.QueryHandle`,
  ``ingest()`` raw text or document streams, ``snapshot()``/``restore()``
  the whole service.
* :class:`~repro.service.async_service.AsyncMonitoringService` -- the
  same façade for ``asyncio`` applications (``service.serve()`` returns
  one): ingestion runs on the single worker thread of
  :mod:`repro.service.lane` -- off the event loop, behind a bound on
  in-flight batches -- while results, change streams and snapshots stay
  bit-identical to the synchronous path.

The modules below this package (:mod:`repro.core`, :mod:`repro.cluster`,
:mod:`repro.alerting`, :mod:`repro.persistence`, ...) remain the
documented low-level API for callers that need to wire the parts
themselves.
"""

from repro.service.spec import (
    DurabilityPolicy,
    EngineKind,
    EngineSpec,
    PlacementCalibration,
    ProcOptions,
    WindowSpec,
    engine_kinds,
    register_engine_kind,
    spec_from_name,
)
from repro.service.service import MonitoringService, QueryHandle
from repro.service.async_service import AsyncMonitoringService

__all__ = [
    "AsyncMonitoringService",
    "EngineSpec",
    "WindowSpec",
    "PlacementCalibration",
    "DurabilityPolicy",
    "ProcOptions",
    "EngineKind",
    "register_engine_kind",
    "engine_kinds",
    "spec_from_name",
    "MonitoringService",
    "QueryHandle",
]
