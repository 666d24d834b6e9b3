"""Fan-out of engine calls to the shards of a cluster.

Every shard of a :class:`~repro.cluster.engine.ShardedEngine` owns a full
copy of the sliding window (the *queries* are partitioned, the *documents*
are replicated), so each arrival, expiration and clock advancement must
reach every shard, in the same order.  The dispatcher centralises that
fan-out and times each shard: with shards on separate cores or machines
the cluster's latency is the per-shard time, not the sum.

:meth:`EventDispatcher.fan_out` is *pipelined*: every shard is sent the
call before any is read.  An in-process shard computes when it is sent; a
:class:`~repro.net.remote.RemoteShard`'s worker computes while the other
shards are sent theirs, and is read afterwards.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.exceptions import ReproError
from repro.observability import runtime as _obs
from repro.observability.timing import Timer

__all__ = ["EventDispatcher", "Seed", "ShardCall"]

#: ``seed(shard)``: that shard's state before a call, as a
#: :func:`~repro.persistence.snapshot_engine`-format document
Seed = Callable[[int], Dict[str, Any]]


class ShardCall:
    """One engine call, fanned out to every shard or made on one."""

    __slots__ = ("method", "args", "seed", "encoded")

    def __init__(self, method: str, args: Sequence[Any] = (), seed: Optional[Seed] = None) -> None:
        #: the engine method each shard runs, with ``args``
        self.method = method
        self.args = tuple(args)
        #: what a remote shard replacing its worker mid-call seeds it with
        #: (``None``: the coordinator's state now)
        self.seed = seed
        #: the request's wire form -- JSON params, or the ``bytes`` of a
        #: binary attachment (a batch's columns) -- made by the first remote
        #: shard that sends the call and reused by the others: once per
        #: fan-out, not per shard
        self.encoded: Optional[Union[Dict[str, Any], bytes]] = None


class EventDispatcher:
    """Delivers engine calls to every shard and times the work per shard."""

    def __init__(self, shards: Sequence[Any]) -> None:
        self.shards = list(shards)
        self._remote = [hasattr(shard, "send") for shard in self.shards]
        #: one stopwatch per shard: one measurement per fan-out -- an
        #: in-process shard's computation, or the wait for a remote one
        self.shard_timers: List[Timer] = [Timer() for _ in self.shards]

    def fan_out(
        self, method: str, args: Sequence[Any] = (), seed: Optional[Seed] = None
    ) -> List[Any]:
        """Call ``method(*args)`` on every shard; the results by shard.

        Every remote shard is read even after one of them failed, so the
        connections stay request/response aligned; then the first shard's
        error is raised.
        """
        observed = _obs.active
        started = time.perf_counter() if observed else 0.0
        call = ShardCall(method, args, seed)
        results: List[Any] = []
        for shard, remote, timer in zip(self.shards, self._remote, self.shard_timers):
            if remote:
                shard.send(call)
                results.append(None)
            else:
                with timer:
                    results.append(getattr(shard, method)(*call.args))
        error: Optional[ReproError] = None
        for index, shard in enumerate(self.shards):
            if not self._remote[index]:
                continue
            try:
                with self.shard_timers[index]:
                    results[index] = shard.receive(call)
            except ReproError as failure:
                error = error or failure
        if error is not None:
            raise error
        if observed:
            _obs.histogram_child(
                "repro_cluster_dispatch_ms", "pipelined fan-out latency", "method", method
            ).observe((time.perf_counter() - started) * 1000.0)
        return results

    # ------------------------------------------------------------------ #
    # timing introspection
    # ------------------------------------------------------------------ #
    def shard_total_ms(self) -> List[float]:
        """Total measured time per shard, in milliseconds."""
        return [timer.total_ms for timer in self.shard_timers]

    def reset_timers(self) -> None:
        """Zero every shard stopwatch (e.g. after a warm-up phase)."""
        for timer in self.shard_timers:
            timer.reset()
