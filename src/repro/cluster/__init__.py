"""Query-sharded cluster: horizontal scale-out of the monitoring server.

The paper's ITA server is a single main-memory monitor; this subsystem
turns it into a multi-shard service.  A :class:`~repro.cluster.engine.ShardedEngine`
owns ``N`` inner engines, partitions the installed queries across them
(round-robin, hash, or cost-model-driven placement), replicates every
stream event to all shards through an
:class:`~repro.cluster.dispatcher.EventDispatcher` (with a batch fan-out
that amortises per-event overhead), and merges the per-shard answers back
into the single-engine API with a
:class:`~repro.cluster.merger.ResultMerger`.  Live query
migration/rebalancing live on the engine itself; a cluster checkpoints
through :mod:`repro.persistence` like any engine, each query carrying its
shard.

Because every query runs the full algorithm on exactly one shard over a
full copy of the window, the merged results are *identical* (including
tie-breaks) to a single engine hosting all queries, while each shard only
performs its share of the per-arrival query-processing work -- the lever
that breaks the single-engine stability ceiling measured by
:mod:`repro.workloads.throughput`.
"""

from repro.cluster.dispatcher import EventDispatcher
from repro.cluster.engine import ShardedEngine
from repro.cluster.merger import ResultMerger
from repro.cluster.placement import (
    CostModelPlacement,
    HashPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    make_placement,
)

__all__ = [
    "ShardedEngine",
    "EventDispatcher",
    "ResultMerger",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "HashPlacement",
    "CostModelPlacement",
    "make_placement",
]
