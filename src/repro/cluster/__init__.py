"""Query-sharded cluster: horizontal scale-out of the monitoring server.

The paper's ITA server is a single main-memory monitor; this subsystem
turns it into a multi-shard service.  A :class:`~repro.cluster.engine.ShardedEngine`
partitions the installed queries across ``N`` shards (round-robin, hash,
or cost-model-driven placement), replicates every stream event to all of
them through an :class:`~repro.cluster.dispatcher.EventDispatcher`, and
merges their answers with a :class:`~repro.cluster.merger.ResultMerger`.
It is the one coordinator of both cluster kinds: its shards are
in-process engines or, for ``"sharded-proc"``, :mod:`repro.net` stubs of
engines in worker processes.  Because every query runs the full algorithm
on exactly one shard over a full copy of the window, the merged results
are *identical* (tie-breaks included) to a single engine hosting all
queries, while each shard does only its share of the query work.
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
