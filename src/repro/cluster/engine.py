"""The query-sharded monitoring cluster.

:class:`ShardedEngine` scales the paper's single main-memory server out
horizontally: it owns ``N`` inner monitoring engines (ITA by default, any
engine via the factory), *partitions* the installed queries across them
with a pluggable placement policy, and *replicates* the document stream to
every shard so all shard windows slide consistently.  Each query is
evaluated by exactly one shard running the full algorithm over the full
window, so the merged results are identical -- including tie-breaks -- to a
single engine hosting every query, while the per-arrival query-processing
work on each shard shrinks to its share of the queries.

The class implements the :class:`~repro.core.base.MonitoringEngine`
interface, so the experiment harness, persistence, throughput analysis and
the examples drive a cluster exactly like a single engine.  Cluster-only
capabilities (live query migration, rebalancing, per-shard introspection)
are additive.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.cluster.dispatcher import EventDispatcher
from repro.cluster.merger import ResultMerger
from repro.cluster.placement import CostModelPlacement, PlacementPolicy, make_placement
from repro.core.base import MonitoringEngine, ResultChange, TopKResult
from repro.core.engine import ITAEngine
from repro.documents.document import StreamedDocument
from repro.documents.window import CountBasedWindow, WindowSpec
from repro.exceptions import ConfigurationError, UnknownQueryError, WindowError
from repro.observability.timing import AggregatedCounters
from repro.query.query import ContinuousQuery
from repro.query.registry import QueryRegistry

__all__ = ["ShardedEngine"]

#: builds one shard engine, its private sliding window included
ShardFactory = Callable[[], MonitoringEngine]


class ShardedEngine(MonitoringEngine):
    """A multi-shard monitoring service behind the single-engine interface.

    Parameters
    ----------
    num_shards:
        Number of inner engines.  ``1`` is allowed and behaves exactly like
        the inner engine alone (useful as the scaling baseline).
    shard_factory:
        Builds one shard engine over its own *private* sliding window
        (``EngineSpec.build`` is one).  Shards cannot share a window object
        -- each engine mutates its own -- but identically-configured
        windows over the same stream expire identically, which keeps the
        shards consistent.  Defaults to
        ``ITAEngine(CountBasedWindow(1000), track_changes=track_changes)``.
    placement:
        A :class:`~repro.cluster.placement.PlacementPolicy` instance or one
        of the policy names ``"round-robin"``, ``"hash"``, ``"cost"``
        (default: cost-model-driven placement).
    track_changes:
        Forwarded to the default engine factory; when ``False`` the merged
        change lists are empty, matching the single-engine contract.
    """

    name = "sharded"

    def __init__(
        self,
        num_shards: int = 2,
        shard_factory: Optional[ShardFactory] = None,
        placement: Union[str, PlacementPolicy] = "cost",
        track_changes: bool = True,
    ) -> None:
        if num_shards <= 0:
            raise ConfigurationError("a cluster needs at least one shard")
        if shard_factory is None:
            shard_factory = lambda: ITAEngine(  # noqa: E731
                CountBasedWindow(1000), track_changes=track_changes
            )
        self.shards: List[MonitoringEngine] = [shard_factory() for _ in range(num_shards)]
        # The cluster keeps a mirror window of its own -- a fresh window
        # configured like shard 0's -- so that generic code inspecting
        # ``engine.window`` (length, valid documents, snapshots) sees the
        # same contents as every shard.
        super().__init__(WindowSpec.of(self.shards[0].window).build())
        self.num_shards = num_shards
        self.track_changes = track_changes
        self.dispatcher = EventDispatcher(self.shards)
        self.merger = ResultMerger()
        if isinstance(placement, PlacementPolicy):
            if placement.num_shards != num_shards:
                raise ConfigurationError(
                    f"placement policy is sized for {placement.num_shards} shards, "
                    f"cluster has {num_shards}"
                )
            self.placement = placement
        else:
            self.placement = make_placement(placement, num_shards)
        self.registry = QueryRegistry()
        self._assignment: Dict[int, int] = {}
        # Cluster counters are the live sum over the shards' blocks.
        self.counters = AggregatedCounters(lambda: [shard.counters for shard in self.shards])

    # ------------------------------------------------------------------ #
    # query management
    # ------------------------------------------------------------------ #
    def register_query(self, query: ContinuousQuery, shard: Optional[int] = None) -> int:
        """Install ``query`` on a shard and return the shard index.

        Without an explicit ``shard`` the placement policy picks one;
        restore and migration pass the shard explicitly.
        """
        if shard is not None and not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"shard {shard} outside 0..{self.num_shards - 1}"
            )
        self.registry.register(query)
        try:
            if shard is None:
                shard = self.placement.place(query)
            else:
                self.placement.record(query, shard)
        except Exception:
            self.registry.unregister(query.query_id)
            raise
        try:
            self.shards[shard].register_query(query)
        except Exception:
            # Roll back both the registry and the placement accounting, so
            # a failed registration leaves no phantom load on the shard.
            self.placement.forget(query, shard)
            self.registry.unregister(query.query_id)
            raise
        self._assignment[query.query_id] = shard
        return shard

    def unregister_query(self, query_id: int) -> None:
        """Terminate ``query_id`` on whichever shard hosts it."""
        query = self.registry.unregister(query_id)
        shard = self._assignment.pop(query_id)
        self.shards[shard].unregister_query(query_id)
        self.placement.forget(query, shard)

    def query_ids(self) -> List[int]:
        return self.registry.query_ids()

    def shard_of(self, query_id: int) -> int:
        """The index of the shard hosting ``query_id``."""
        try:
            return self._assignment[query_id]
        except KeyError:
            raise UnknownQueryError(f"query id {query_id} is not registered") from None

    def assignment(self) -> Dict[int, int]:
        """A copy of the ``{query_id: shard}`` placement map."""
        return dict(self._assignment)

    def shard_query_counts(self) -> List[int]:
        """Number of hosted queries per shard."""
        counts = [0] * self.num_shards
        for shard in self._assignment.values():
            counts[shard] += 1
        return counts

    # ------------------------------------------------------------------ #
    # stream processing
    # ------------------------------------------------------------------ #
    def process(self, document: StreamedDocument) -> List[ResultChange]:
        """Fan one arrival out to every shard; merged result changes."""
        self.window.insert(document)
        per_shard = self.dispatcher.dispatch(document)
        return self.merger.merge_changes(per_shard)

    def process_batch_events(
        self, documents: Sequence[StreamedDocument]
    ) -> List[List[ResultChange]]:
        """Feed a batch of stream elements through the batch fan-out.

        Consecutive elements are grouped so each shard runs its own
        batched fast path over the whole batch (see
        :meth:`~repro.cluster.dispatcher.EventDispatcher.dispatch_batch`),
        amortising the per-event dispatch overhead.  The merged change
        stream is re-interleaved event-major, so the result is identical
        to unbatched per-event processing (``process_batch`` and
        ``process_many`` flatten it).  Like a single engine, a batch
        rejected part-way keeps its accepted prefix: the shards get the
        prefix, then the error is re-raised.
        """
        batch = list(documents)
        for accepted, document in enumerate(batch):
            try:
                self.window.insert(document)
            except WindowError:
                self.dispatcher.dispatch_batch(batch[:accepted])
                raise
        per_shard = self.dispatcher.dispatch_batch(batch)
        return [
            self.merger.merge_changes(
                shard_events[event_index] for shard_events in per_shard
            )
            for event_index in range(len(batch))
        ]

    def advance_time(self, now: float) -> List[ResultChange]:
        """Advance every shard's clock consistently (time-based windows)."""
        self.window.advance_time(now)
        per_shard = self.dispatcher.advance_time(now)
        return self.merger.merge_changes(per_shard)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def current_result(self, query_id: int) -> TopKResult:
        return self.shards[self.shard_of(query_id)].current_result(query_id)

    def current_results(self) -> Dict[int, TopKResult]:
        """The merged results of every installed query, across all shards."""
        return self.merger.merge_results(shard.current_results() for shard in self.shards)

    def top_documents(self, limit: int) -> TopKResult:
        """Cluster-wide best documents across all queries (dashboard view)."""
        return self.merger.top_documents(self.current_results(), limit)

    # ------------------------------------------------------------------ #
    # migration and rebalancing
    # ------------------------------------------------------------------ #
    def migrate_query(self, query_id: int, target_shard: int) -> None:
        """Move a live query to ``target_shard``.

        The target shard recomputes the query's result over its own window;
        since all shard windows hold the same documents, the reported top-k
        is unchanged by the move.
        """
        if not 0 <= target_shard < self.num_shards:
            raise ConfigurationError(
                f"shard {target_shard} outside 0..{self.num_shards - 1}"
            )
        source_shard = self.shard_of(query_id)
        if source_shard == target_shard:
            return
        query = self.registry.get(query_id)
        self.shards[source_shard].unregister_query(query_id)
        self.placement.forget(query, source_shard)
        try:
            self.shards[target_shard].register_query(query)
        except Exception:
            # Put the query back where it was so a failed migration does
            # not lose it from every shard.
            self.shards[source_shard].register_query(query)
            self.placement.record(query, source_shard)
            raise
        self.placement.record(query, target_shard)
        self._assignment[query_id] = target_shard

    def rebalance(self, policy: Optional[PlacementPolicy] = None) -> int:
        """Re-place every query under ``policy``; return the migration count.

        Queries are re-placed in descending estimated-cost order (greedy
        bin packing performs best that way) when the policy is cost-driven,
        and in installation order otherwise.  Only queries whose assigned
        shard actually changes are migrated.
        """
        if policy is None:
            policy = CostModelPlacement(self.num_shards)
        elif policy is self.placement:
            # place() below would record every query a second time onto the
            # live accounting; rebalancing needs a policy with empty books.
            raise ConfigurationError(
                "rebalance needs a fresh placement policy, not the cluster's "
                "current one (pass None for a fresh cost-model policy)"
            )
        elif policy.num_shards != self.num_shards:
            raise ConfigurationError(
                f"rebalance policy is sized for {policy.num_shards} shards, "
                f"cluster has {self.num_shards}"
            )
        queries = list(self.registry)
        if isinstance(policy, CostModelPlacement):
            queries.sort(key=lambda q: (-policy.estimated_cost(q), q.query_id))
        desired = {query.query_id: policy.place(query) for query in queries}
        migrated = 0
        for query_id, shard in desired.items():
            if self._assignment[query_id] != shard:
                self.migrate_query(query_id, shard)
                migrated += 1
        self.placement = policy
        return migrated

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Validate placement bookkeeping and every shard (tests only)."""
        assert sorted(self._assignment) == sorted(self.registry.query_ids())
        for query_id, shard in self._assignment.items():
            assert query_id in self.shards[shard].query_ids(), (
                f"query {query_id} assigned to shard {shard} but not hosted there"
            )
        hosted = [query_id for shard in self.shards for query_id in shard.query_ids()]
        assert len(hosted) == len(set(hosted)), "a query is hosted by several shards"
        for shard in self.shards:
            assert len(shard.window) == len(self.window), (
                "shard window diverged from the cluster mirror window"
            )
            validate = getattr(shard, "check_invariants", None)
            if validate is not None:
                validate()
