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
shards are sent theirs, and is read afterwards.  :meth:`EventDispatcher.run`
makes a different call on each shard -- a restore's per-shard seeds -- and
runs the coordinator's own work in the gap while the workers compute.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ReproError
from repro.observability import runtime as _obs
from repro.observability.timing import Timer

__all__ = ["EventDispatcher", "Seed", "ShardCall"]

#: ``seed(shard)``: that shard's state before a call, as a
#: :func:`~repro.persistence.restore_into` snapshot whose ``"columns"``
#: hold its documents and queries (:func:`~repro.persistence.decode_seed`)
Seed = Callable[[int], Dict[str, Any]]


class ShardCall:
    """One engine call, fanned out to every shard or made on one."""

    __slots__ = ("method", "args", "seed", "local", "encoded")

    def __init__(
        self,
        method: str,
        args: Sequence[Any] = (),
        seed: Optional[Seed] = None,
        local: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        #: the engine method each shard runs, with ``args``
        self.method = method
        self.args = tuple(args)
        #: what a remote shard replacing its worker mid-call seeds it with
        #: (``None``: the coordinator's state now)
        self.seed = seed
        #: what an in-process shard runs instead of ``method(*args)``, given
        #: the shard (a restore replays into it)
        self.local = local
        #: the request's wire form -- JSON params, the ``bytes`` of a binary
        #: attachment (a batch's columns), or both (a seed) -- made by the
        #: first remote shard that sends the call and reused by the others:
        #: once per fan-out, not per shard
        self.encoded: Optional[Union[Dict[str, Any], bytes, Tuple[Dict[str, Any], bytes]]] = None


class EventDispatcher:
    """Delivers engine calls to every shard and times the work per shard."""

    def __init__(self, shards: Sequence[Any]) -> None:
        self.shards = list(shards)
        #: by shard: whether it is remote (sent a call, read later)
        self.remote = [hasattr(shard, "send") for shard in self.shards]
        #: one stopwatch per shard: one measurement per fan-out -- an
        #: in-process shard's computation, or the wait for a remote one
        self.shard_timers: List[Timer] = [Timer() for _ in self.shards]

    def fan_out(
        self, method: str, args: Sequence[Any] = (), seed: Optional[Seed] = None
    ) -> List[Any]:
        """Call ``method(*args)`` on every shard; the results by shard."""
        return self.run([ShardCall(method, args, seed)] * len(self.shards))

    def run(self, calls: Sequence[ShardCall], meanwhile: Optional[Callable[[], None]] = None) -> List[Any]:
        """Make ``calls[i]`` on shard ``i``; the results by shard.

        ``meanwhile`` runs once every remote shard has been sent its call,
        while the workers compute.  Every remote shard is read even after
        one of them (or ``meanwhile``) failed, so the connections stay
        request/response aligned; then the first error is raised.
        """
        observed = _obs.active
        started = time.perf_counter() if observed else 0.0
        results: List[Any] = []
        for shard, remote, timer, call in zip(self.shards, self.remote, self.shard_timers, calls):
            if remote:
                shard.send(call)
                results.append(None)
            else:
                with timer:
                    if call.local is None:
                        results.append(getattr(shard, call.method)(*call.args))
                    else:
                        results.append(call.local(shard))
        error: Optional[Exception] = None
        if meanwhile is not None:
            try:
                meanwhile()
            except Exception as failure:
                error = failure
        for index, (shard, call) in enumerate(zip(self.shards, calls)):
            if not self.remote[index]:
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
                "repro_cluster_dispatch_ms", "pipelined fan-out latency", "method", calls[0].method
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
