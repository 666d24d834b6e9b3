"""repro -- a reproduction of "An Incremental Threshold Method for
Continuous Text Search Queries" (Mouratidis & Pang, ICDE 2009).

The library implements a main-memory text filtering server that maintains,
for a large set of standing (continuous) text search queries, the top-k
most similar documents within a sliding window over a document stream.

Quickstart
----------
The recommended entry point is the typed service façade: a
:class:`~repro.service.service.MonitoringService` owns the text pipeline,
the engine and the alert dispatching, so registering a standing query and
streaming documents is three calls:

>>> from repro import MonitoringService
>>> with MonitoringService() as service:
...     handle = service.subscribe("market news", k=1)
...     _ = service.ingest(["breaking news about markets",
...                         "weather update for tomorrow"])
...     [entry.doc_id for entry in handle.result()]
[0]

Every engine -- the paper's ITA, the evaluation baselines, the sharded
cluster -- is described by one typed, validated, serialisable
:class:`~repro.service.spec.EngineSpec`, so the same call-site scales from
a single engine to a cluster by changing the spec:

>>> from repro import EngineSpec, WindowSpec
>>> spec = EngineSpec(kind="sharded", num_shards=4,
...                   window=WindowSpec.count(1000))
>>> service = MonitoringService(spec)

Public API overview
-------------------
* :mod:`repro.service` -- the high-level façade:
  :class:`~repro.service.service.MonitoringService` (``subscribe`` /
  ``ingest`` / ``snapshot`` / ``restore``),
  :class:`~repro.service.service.QueryHandle`, and
  :class:`~repro.service.spec.EngineSpec` with the engine-kind registry.

The modules below are the documented *low-level* API for callers that
wire the parts themselves (the experiment harness does, and the examples
``email_threat_monitoring.py`` / ``portfolio_monitoring.py`` show it):

* :class:`~repro.core.engine.ITAEngine` -- the paper's contribution: the
  Incremental Threshold Algorithm.
* :class:`~repro.baselines.naive.NaiveEngine` and
  :class:`~repro.baselines.kmax.KMaxNaiveEngine` -- the baselines of the
  paper's evaluation.
* :class:`~repro.query.query.ContinuousQuery` -- a standing top-k query.
* :mod:`repro.cluster` -- the query-sharded cluster:
  :class:`~repro.cluster.engine.ShardedEngine` partitions the installed
  queries across N inner engines (round-robin, hash or cost-model
  placement), replicates the stream to all shards, and merges the
  per-shard answers back into this same API -- with live query
  migration/rebalancing, and snapshots that keep every query on its
  shard (:func:`~repro.persistence.snapshot_engine` /
  :func:`~repro.persistence.restore_into`, as for any engine).
* :mod:`repro.alerting` -- the change-subscription layer the façade
  dispatches through.
* :mod:`repro.documents` -- documents, corpora (including the synthetic
  WSJ stand-in), arrival processes and sliding windows.
* :mod:`repro.workloads` -- the experiment harness reproducing the
  paper's figures, plus the ``cluster-scaling`` shard-count sweep.
"""

from repro.baselines.kmax import (
    AdaptiveKMaxPolicy,
    AnalyticalKMaxPolicy,
    FixedKMaxPolicy,
    KMaxNaiveEngine,
)
from repro.baselines.naive import NaiveEngine
from repro.baselines.oracle import OracleEngine
from repro.cluster.engine import ShardedEngine
from repro.cluster.merger import ResultMerger
from repro.cluster.placement import (
    CostModelPlacement,
    HashPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
)
from repro.core.base import MonitoringEngine, ResultChange
from repro.core.descent import ProbeOrder
from repro.core.engine import ITAEngine
from repro.core.ita import ITAQueryState
from repro.alerting import Alert, AlertDispatcher
from repro.persistence import restore_engine, restore_into, snapshot_engine
from repro.documents.corpus import (
    Corpus,
    FileCorpus,
    InMemoryCorpus,
    SyntheticCorpus,
    SyntheticCorpusConfig,
)
from repro.documents.document import CompositionList, Document, StreamedDocument
from repro.documents.stream import (
    DocumentStream,
    FixedRateArrivalProcess,
    PoissonArrivalProcess,
    ReplayArrivalProcess,
)
from repro.documents.window import CountBasedWindow, TimeBasedWindow
from repro.durability import (
    DurabilityLog,
    DurabilityPolicy,
    RecoveryReport,
    recover_service,
)
from repro.exceptions import ReproError
from repro.query.query import ContinuousQuery
from repro.query.result import ResultEntry, ResultList
from repro.service.async_service import AsyncMonitoringService
from repro.service.service import MonitoringService, QueryHandle
from repro.service.spec import (
    EngineSpec,
    PlacementCalibration,
    WindowSpec,
    engine_kinds,
    register_engine_kind,
)
from repro.text.analyzer import Analyzer, AnalyzerConfig
from repro.text.vocabulary import Vocabulary
from repro.weighting.schemes import CosineWeighting, OkapiBM25Weighting

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # service façade
    "AsyncMonitoringService",
    "MonitoringService",
    "QueryHandle",
    "EngineSpec",
    "WindowSpec",
    "PlacementCalibration",
    "register_engine_kind",
    "engine_kinds",
    # durability
    "DurabilityPolicy",
    "DurabilityLog",
    "RecoveryReport",
    "recover_service",
    # engines
    "MonitoringEngine",
    "ITAEngine",
    "ITAQueryState",
    "ProbeOrder",
    "NaiveEngine",
    "KMaxNaiveEngine",
    "FixedKMaxPolicy",
    "AdaptiveKMaxPolicy",
    "AnalyticalKMaxPolicy",
    "OracleEngine",
    "ResultChange",
    "snapshot_engine",
    "restore_engine",
    "restore_into",
    "Alert",
    "AlertDispatcher",
    # cluster subsystem
    "ShardedEngine",
    "ResultMerger",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "HashPlacement",
    "CostModelPlacement",
    # queries and results
    "ContinuousQuery",
    "ResultEntry",
    "ResultList",
    # documents and streams
    "Document",
    "StreamedDocument",
    "CompositionList",
    "Corpus",
    "InMemoryCorpus",
    "FileCorpus",
    "SyntheticCorpus",
    "SyntheticCorpusConfig",
    "DocumentStream",
    "PoissonArrivalProcess",
    "FixedRateArrivalProcess",
    "ReplayArrivalProcess",
    "CountBasedWindow",
    "TimeBasedWindow",
    # text analysis and weighting
    "Analyzer",
    "AnalyzerConfig",
    "Vocabulary",
    "CosineWeighting",
    "OkapiBM25Weighting",
    # errors
    "ReproError",
]
