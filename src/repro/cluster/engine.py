"""The query-sharded monitoring cluster: one coordinator for every transport.

:class:`ShardedEngine` scales the paper's single main-memory server out
horizontally: it *partitions* the installed queries across ``N`` shard
engines with a pluggable placement policy and *replicates* the document
stream to every shard, so all shard windows slide consistently.  Each
query is evaluated by exactly one shard running the full algorithm over
the full window, so the merged results are identical -- tie-breaks
included -- to a single engine hosting every query, while each shard does
only its share of the per-arrival query-processing work.

A shard is anything with the engine interface: an in-process engine
(kind ``"sharded"``) or a :class:`~repro.net.remote.RemoteShard` whose
engine runs in a worker process (kind ``"sharded-proc"``).  The mirror
window, registry, placement, part-way-batch prefix rule, event-major
merge, migration and invariants are written once, here, for both.

**Seeds.**  Every call that changes a shard can hand it the shard's state
before the call: the mirror's documents at the pre-call clock, as the
shard channel's columns, followed by the registry's queries assigned to
it, as columns too (a query is assigned once its shard has taken the
registration, and unassigned once it has taken the removal; a remote
shard takes either without waiting for its worker's acknowledgement).  A remote shard that
must replace its worker mid-call seeds the replacement with it; the seed
is built only when asked for.  A
restore (:meth:`ShardedEngine.seed_shards`) sends every worker the same
kind of seed, all at once.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cluster.dispatcher import EventDispatcher, ShardCall
from repro.cluster.merger import ResultMerger
from repro.cluster.placement import CostModelPlacement, PlacementPolicy, make_placement
from repro.core.base import MonitoringEngine, ResultChange, TopKResult
from repro.core.engine import ITAEngine
from repro.documents.document import StreamedDocument
from repro.documents.window import CountBasedWindow, WindowSpec
from repro.exceptions import ConfigurationError, UnknownQueryError, WindowError
from repro.observability.timing import AggregatedCounters
from repro.persistence import SNAPSHOT_VERSION, encode_documents, encode_queries, replay
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
        shards = [shard_factory() for _ in range(num_shards)]
        self._assemble(shards, WindowSpec.of(shards[0].window), placement, track_changes)

    def _assemble(
        self,
        shards: Sequence[Any],
        window_spec: WindowSpec,
        placement: Union[str, PlacementPolicy],
        track_changes: bool,
    ) -> None:
        """Coordinate ``shards`` with a *mirror* window of ``window_spec``.

        The mirror pre-validates arrivals (a rejected document reaches no
        shard), holds what seeds are built from, and serves
        ``engine.window`` (length, valid documents, snapshots).
        """
        super().__init__(window_spec.build())
        self.shards = list(shards)
        self.num_shards = len(self.shards)
        self.window_spec = window_spec
        self.track_changes = track_changes
        self.dispatcher = EventDispatcher(self.shards)
        self.merger = ResultMerger()
        if isinstance(placement, PlacementPolicy):
            if placement.num_shards != self.num_shards:
                raise ConfigurationError(
                    f"placement policy is sized for {placement.num_shards} shards, "
                    f"cluster has {self.num_shards}"
                )
            self.placement = placement
        else:
            self.placement = make_placement(placement, self.num_shards)
        self.registry = QueryRegistry()
        self._assignment: Dict[int, int] = {}
        # Cluster counters are the live sum over the shards' blocks.
        self.counters = AggregatedCounters(lambda: [shard.counters for shard in self.shards])

    # ------------------------------------------------------------------ #
    # seeds
    # ------------------------------------------------------------------ #
    def _seed(
        self,
        shard: int,
        clock: Optional[float],
        documents: Sequence[StreamedDocument],
        columns: Optional[bytes] = None,
        states: Optional[Mapping[int, Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """``shard`` as a :func:`~repro.persistence.restore_into` seed: the
        version, window and ``clock`` beside ``"columns"``, which holds
        ``documents`` as the shard channel's columns -- ``columns`` when
        already encoded -- followed by the queries assigned to it
        (:func:`~repro.persistence.encode_queries`), each with its recorded
        state from ``states`` when it has one (only a restore has any: a
        re-seed's queries run their descent)."""
        hosted = encode_queries(self._hosted(shard), states or {})
        return {
            "version": SNAPSHOT_VERSION,
            "window": self.window_spec.to_dict(),
            "clock": clock,
            "columns": (encode_documents(documents) if columns is None else columns) + hosted,
        }

    def _hosted(self, shard: int) -> List[ContinuousQuery]:
        """The queries assigned to ``shard``, in registry order."""
        return [query for query in self.registry if self._assignment.get(query.query_id) == shard]

    def _current_state(self, shard: int) -> Dict[str, Any]:
        """The seed of a call that changes no window: the mirror as it is."""
        return self._seed(shard, self.window.clock, list(self.window))

    def seed_shards(
        self,
        documents: Sequence[StreamedDocument],
        clock: Optional[float],
        queries: Sequence[Tuple[ContinuousQuery, Optional[int]]],
        states: Optional[Mapping[int, Dict[str, Any]]] = None,
    ) -> None:
        """Load a snapshot's state into this empty cluster, one call per shard.

        :func:`~repro.persistence.restore_into` hands a query-placing
        engine its decoded snapshot: ``documents`` oldest first, the
        ``clock``, the queries in registry order, each with its recorded
        shard (``None``: the placement policy picks), and the recorded
        query states by query id, which travel to each query's shard.  Every
        recorded shard is checked before anything changes.  The
        coordinator then takes the registry and placements in that order,
        and every shard gets its whole state in one call: an in-process
        shard replays it (:func:`~repro.persistence.replay`), a remote one
        is sent a ``restore`` seed whose columns are encoded once for all
        of them, under one call's deadline.  The mirror window fills while
        the workers load.  Each shard sees exactly the calls
        :func:`~repro.persistence.replay` on the cluster would have fanned
        out to it.  A cluster whose seeding failed part-way is not usable:
        close it and build a fresh one.
        """
        outside = [shard for _, shard in queries if shard is not None and not 0 <= shard < self.num_shards]
        if outside:
            recorded = 1 + max(shard for _, shard in queries if shard is not None)
            raise ConfigurationError(
                f"the snapshot places queries on {recorded} shards (shard {outside[0]}), "
                f"this cluster has {self.num_shards}"
            )
        if len(self.registry) or len(self.window):
            raise ConfigurationError("a snapshot is restored into an empty cluster")
        for query, shard in queries:
            self.registry.register(query)
            if shard is None:
                shard = self.placement.place(query)
            else:
                self.placement.record(query, shard)
            self._assignment[query.query_id] = shard

        def fill_mirror() -> None:
            for document in documents:
                self.window.insert(document)
            if clock is not None:
                self.window.advance_time(clock)

        columns = encode_documents(documents) if any(self.dispatcher.remote) else None

        def call(index: int, remote: bool) -> ShardCall:
            if remote:
                return ShardCall("restore", (self._seed(index, clock, documents, columns, states),))
            hosted = self._hosted(index)
            return ShardCall("restore", local=lambda shard: replay(shard, documents, clock, hosted, states))

        self.dispatcher.run(
            [call(index, remote) for index, remote in enumerate(self.dispatcher.remote)], meanwhile=fill_mirror
        )

    # ------------------------------------------------------------------ #
    # query management
    # ------------------------------------------------------------------ #
    def register_query(self, query: ContinuousQuery, shard: Optional[int] = None) -> int:
        """Install ``query`` on a shard and return the shard index.

        Without an explicit ``shard`` the placement policy picks one;
        WAL replay passes the recorded shard explicitly.
        """
        return self._host(query, shard, lambda engine: engine.register_query(query))

    def install_query(
        self, query: ContinuousQuery, record: Mapping[str, Any], shard: Optional[int] = None
    ) -> int:
        """:meth:`register_query` in the state a snapshot recorded for
        ``query``: its shard installs it (``install_query``)."""
        return self._host(query, shard, lambda engine: engine.install_query(query, record))

    def _host(self, query: ContinuousQuery, shard: Optional[int], install: Callable[[Any], None]) -> int:
        """Place ``query`` (on ``shard`` when given) and ``install`` it on its shard engine."""
        if shard is not None and not 0 <= shard < self.num_shards:
            raise ConfigurationError(f"shard {shard} outside 0..{self.num_shards - 1}")
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
            install(self.shards[shard])
        except Exception:
            # Roll back both the registry and the placement accounting, so
            # a failed registration leaves no phantom load on the shard.
            self.placement.forget(query, shard)
            self.registry.unregister(query.query_id)
            raise
        self._assignment[query.query_id] = shard
        return shard

    def unregister_query(self, query_id: int) -> None:
        """Terminate ``query_id`` on whichever shard hosts it.

        The query stays registered and assigned until its shard has taken
        the removal, so a seed built during the call still holds it and
        one built after it does not.  A remote shard takes the removal
        without waiting for its worker's acknowledgement: the worker
        applies it before anything sent later.
        """
        query = self.registry.get(query_id)
        shard = self._assignment[query_id]
        try:
            self.shards[shard].unregister_query(query_id)
        finally:
            self.registry.unregister(query_id)
            del self._assignment[query_id]
            self.placement.forget(query, shard)

    def query_ids(self) -> List[int]:
        return self.registry.query_ids()

    def query_states(self) -> Dict[int, Dict[str, Any]]:
        """Every query's recorded state by query id, read from its shard
        (:meth:`~repro.core.engine.ITAEngine.query_states`; a worker's
        over RPC); shards whose engines record none add nothing."""
        states: Dict[int, Dict[str, Any]] = {}
        for shard_states in self.dispatcher.fan_out("query_states"):
            states.update(shard_states)
        return states

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
        return self.process_batch_events([document])[0]

    def process_batch_events(self, documents: Iterable[StreamedDocument]) -> List[List[ResultChange]]:
        """Replicate a batch to every shard; event-major merged changes.

        Each shard runs its own batched fast path over the whole batch,
        and the merged change stream is re-interleaved event-major, so the
        result is identical to unbatched per-event processing
        (``process_batch`` and ``process_many`` flatten it).  The mirror
        window takes the batch first and applies exactly the validation
        the shards would (stale arrivals).  Like a single engine, a batch
        rejected part-way keeps its accepted prefix: the shards get the
        prefix, then the error is re-raised.
        """
        batch = list(documents)
        clock = self.window.clock
        expired: List[StreamedDocument] = []
        for accepted, document in enumerate(batch):
            try:
                expired.extend(self.window.insert(document))
            except WindowError:
                self._replicate(batch[:accepted], clock, expired)
                raise
        return self._replicate(batch, clock, expired)

    def _replicate(
        self, batch: Sequence[StreamedDocument], clock: Optional[float], expired: List[StreamedDocument]
    ) -> List[List[ResultChange]]:
        """Fan a batch the mirror already took out to every shard.

        The seed is the window before the batch: the mirror minus the
        batch plus what the batch expired (a batch longer than the window
        expires some of its own documents), at the pre-batch ``clock``.
        """
        if not batch:
            return []

        def seed(shard: int) -> Dict[str, Any]:
            fresh = {id(document) for document in batch}
            before = chain(expired, self.window)
            return self._seed(shard, clock, [d for d in before if id(d) not in fresh])

        per_shard = self.dispatcher.fan_out("process_batch_events", (batch,), seed)
        return [
            self.merger.merge_changes(shard_events[event] for shard_events in per_shard)
            for event in range(len(batch))
        ]

    def advance_time(self, now: float) -> List[ResultChange]:
        """Advance every shard's clock consistently (time-based windows)."""
        clock = self.window.clock
        expired = self.window.advance_time(now)
        per_shard = self.dispatcher.fan_out(
            "advance_time", (now,), lambda shard: self._seed(shard, clock, [*expired, *self.window])
        )
        return self.merger.merge_changes(per_shard)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def current_result(self, query_id: int) -> TopKResult:
        return self.shards[self.shard_of(query_id)].current_result(query_id)

    def current_results(self) -> Dict[int, TopKResult]:
        """The merged results of every installed query, across all shards."""
        return self.merger.merge_results(self.dispatcher.fan_out("current_results"))

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
            raise ConfigurationError(f"shard {target_shard} outside 0..{self.num_shards - 1}")
        source_shard = self.shard_of(query_id)
        if source_shard == target_shard:
            return
        query = self.registry.get(query_id)
        self.shards[source_shard].unregister_query(query_id)
        self.placement.forget(query, source_shard)
        # Hosted nowhere until a shard takes it again.
        del self._assignment[query_id]
        try:
            self.shards[target_shard].register_query(query)
        except Exception:
            # Put the query back where it was so a failed migration does
            # not lose it from every shard.
            self.shards[source_shard].register_query(query)
            self.placement.record(query, source_shard)
            self._assignment[query_id] = source_shard
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
        hosted: List[int] = []
        for index, shard in enumerate(self.shards):
            for query_id in shard.query_ids():
                assert self._assignment.get(query_id) == index, (
                    f"query {query_id} hosted on shard {index} but assigned to "
                    f"{self._assignment.get(query_id)}"
                )
                hosted.append(query_id)
            assert len(shard.window) == len(self.window), (
                f"shard {index} window diverged from the cluster mirror window"
            )
            validate = getattr(shard, "check_invariants", None)
            if validate is not None:
                validate()
        assert sorted(hosted) == sorted(self._assignment), (
            "an assigned query is not hosted, or a query is hosted by several shards"
        )
