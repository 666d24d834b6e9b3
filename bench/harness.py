"""The harness: one run of one workload, end to end.

One run is: generate seeded raw text -> set the service up (construct,
pre-fill the window, subscribe), several times over -> warm up -> measure
for the requested number of seconds -> check the final answers against the
brute-force reference -> bring the state back in a fresh service, several
times over, and check that too.  Only ``repro``'s public API is used.  Input
generation happens with the clock stopped and is excluded from every timing.

**Closed loop, one caller, one thread**: the next call is issued when the
previous one returned.  Only ``proc_cluster`` has the *program* start
processes (its two shard workers).

**Blocks and calibration.**  The measured phase is cut into blocks of
``block_calls`` timed ``ingest()`` calls.  Every timing is computed per
block and the run reports the *median* of the per-block values.  Beside every
block (and every set-up, every group of its subscriptions, and every
recovery) the harness times a fixed calibration task and reports the timing
relative to it, because the host's speed swings by up to 40% for minutes at
a time -- ``calibrate.py`` has the reasons and the arithmetic; the raw
values are kept beside the reported ones.  Between blocks, with the clock
stopped, the next block's text is generated and the subscribers drain their
change buffers, so the heap is in a steady state.

Every run measures until its time is up, but never fewer than the workload's
``prefix_blocks`` blocks.  Those first blocks are the **counted prefix**:
operation counts (and the durable workload's crash point) are taken there,
at a position that depends on the seed alone, so they repeat exactly from
run to run while the timings use every block the clock allowed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# The program under test lives in the checkout's src/ directory.
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import EngineSpec, MonitoringService, WindowSpec  # noqa: E402
from repro.net.options import ProcOptions  # noqa: E402
from repro.persistence import document_record  # noqa: E402
from repro.queryscale.options import QueryScaleOptions  # noqa: E402
from repro.text.analyzer import Analyzer  # noqa: E402
from repro.weighting.schemes import CosineWeighting  # noqa: E402

import reference  # noqa: E402
from calibrate import REFERENCE_SECONDS, Calibration  # noqa: E402
from spans import Recorder  # noqa: E402
from textgen import TextGenerator, digest_texts  # noqa: E402
from workloads import Workload  # noqa: E402

__all__ = ["run_workload", "percentile", "Timed"]

WARMUP_DOCS = 200
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: recoveries per untraced run: at least the first number, then more until
#: they have taken RECOVER_BUDGET seconds together, at most the second.  A
#: recovery takes 0.2-2.5 s depending on the workload, and the short ones
#: need more repeats for a steady median.
RECOVER_REPEATS = (3, 7)
RECOVER_BUDGET = 1.5
#: the subscriptions of a set-up are timed in this many groups (of at least
#: SUBSCRIBE_GROUP_MIN), each with a calibration before and after it
SUBSCRIBE_GROUPS = 16
SUBSCRIBE_GROUP_MIN = 25
#: calibration passes before and after a set-up or a recovery: these take
#: 0.2-3 s and there are only a few of them, so each calibration counts
LONG_PASSES = 9
#: one in this many churn_mixed ingests is preceded by an ``advance_time`` call
ADVANCE_EVERY = 8

INGEST, ADVANCE, SUBSCRIBE, UNSUBSCRIBE = range(4)
#: one operation of a block: (kind, payload, poll pick or None)
Operation = Tuple[int, Any, Optional[float]]


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * fraction) - 1)]


class Timed(NamedTuple):
    """Seconds something took, and the calibration measured beside it."""

    seconds: float
    calibration: float

    @property
    def reported(self) -> float:
        """``seconds`` on the reference host; see ``calibrate.py``."""
        return self.seconds * REFERENCE_SECONDS / self.calibration


class Block(NamedTuple):
    """The timings of one block, in seconds as measured."""

    wall: float
    cpu: float
    documents: int
    ingest_p50: float
    ingest_p99: float
    alert_p50: Optional[float]
    alert_p99: Optional[float]
    subscribe_p50: Optional[float]
    #: mean of the calibrations measured before and after the block
    calibration: float = 0.0


def _plain(results: Dict[int, Any]) -> Dict[int, List[Tuple[int, float]]]:
    return {
        query_id: [(entry.doc_id, entry.score) for entry in entries]
        for query_id, entries in results.items()
    }


def _bytes_written() -> int:
    """Bytes this process has passed to write() so far (Linux ``wchar``)."""
    with open("/proc/self/io", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class _Run:
    """The state of one workload run; see :func:`run_workload`."""

    def __init__(self, workload: Workload, seed: int, seconds: float, traced: bool, tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.recorder: Optional[Recorder] = Recorder() if traced else None
        self.calibration = Calibration()
        self.generator = TextGenerator(seed, workload.shape)
        self.digest = hashlib.sha256()
        self.arrival_rng = random.Random(f"{seed}:arrivals")
        self.op_rng = random.Random(f"{seed}:operations")
        self.tokens = 0
        self.generated = 0
        #: changes the engine reported to the query-scale layer (traced run)
        self.canonical_changes = 0
        #: arrival time of every document handed to the *current* service,
        #: by document id; ``clock`` is the last time handed over
        self.times: List[float] = []
        self.clock = 0.0
        #: entry times of the alert callbacks of the call in flight
        self.stamps: List[float] = []
        self.service: Optional[MonitoringService] = None
        self.handles: List[Any] = []
        self.opened: List[MonitoringService] = []
        self.setups = 0
        self.attempted = 0
        self.failed = 0
        self.alerts_delivered = 0
        self.changes_returned = 0
        #: the span-list slice of every measured block (traced run)
        self.block_spans: List[Tuple[int, int]] = []
        on_alert = self._on_alert
        if self.recorder is not None:
            on_alert = self.recorder.wrap(on_alert, "alerting.callback")
        self.on_alert = on_alert

    # ------------------------------------------------------------------ #
    # inputs
    # ------------------------------------------------------------------ #
    def texts(self, count: int) -> List[str]:
        texts = self.generator.documents(count)
        digest_texts(self.digest, texts)
        self.generated += count
        self.tokens += sum(text.count(" ") + 1 for text in texts)
        return texts

    def query_texts(self, count: int) -> List[str]:
        texts = self.generator.queries(count, self.workload.query_terms)
        digest_texts(self.digest, texts)
        return texts

    def _on_alert(self, alert: Any) -> None:
        self.stamps.append(perf_counter())

    def _arrival(self) -> float:
        self.clock += self.arrival_rng.expovariate(self.workload.arrival_rate)
        return self.clock

    def ingest_calls(self, texts: List[str]) -> List[Tuple[Any, ...]]:
        """``texts`` as the argument tuples of successive ``ingest()`` calls."""
        workload = self.workload
        if workload.window == 0:
            calls: List[Tuple[Any, ...]] = [(text, self._arrival()) for text in texts]
            self.times.extend(at for _, at in calls)
            return calls
        self.times.extend(range(len(self.times), len(self.times) + len(texts)))
        if workload.batch == 1:
            return [(text,) for text in texts]
        return [(texts[i : i + workload.batch],) for i in range(0, len(texts), workload.batch)]

    def next_block(self) -> List[Operation]:
        """The operations of the next block, drawn from the seed."""
        workload = self.workload
        calls = self.ingest_calls(self.texts(workload.block_calls * workload.batch))
        if workload.kind != "churn":
            return [(INGEST, call, None) for call in calls]
        # churn_mixed: 50% ingest / 25% subscribe / 25% unsubscribe, exactly,
        # in an order the seed decides; a result() poll after each.
        rng = self.op_rng
        ingests = len(calls)
        kinds = [INGEST] * ingests + [SUBSCRIBE] * (ingests // 2) + [UNSUBSCRIBE] * (ingests // 2)
        rng.shuffle(kinds)
        advanced = [index % ADVANCE_EVERY == 0 for index in range(ingests)]
        rng.shuffle(advanced)
        queries = iter(self.query_texts(ingests // 2))
        arrivals = iter(zip(calls, advanced))
        previous = self.times[-ingests - 1]
        operations: List[Operation] = []
        for kind in kinds:
            if kind == INGEST:
                call, advance = next(arrivals)
                if advance:
                    operations.append((ADVANCE, (previous + call[1]) / 2, None))
                previous = call[1]
                operations.append((INGEST, call, rng.random()))
            elif kind == SUBSCRIBE:
                operations.append((SUBSCRIBE, next(queries), rng.random()))
            else:
                operations.append((UNSUBSCRIBE, rng.random(), rng.random()))
        return operations

    # ------------------------------------------------------------------ #
    # set-up
    # ------------------------------------------------------------------ #
    def _spec(self, directory: Path) -> EngineSpec:
        workload = self.workload
        if workload.window:
            window = WindowSpec.count(workload.window)
        else:
            window = WindowSpec.time(workload.window_span)
        if workload.kind == "durable":
            return EngineSpec(window=window, storage="columnar")
        if workload.kind == "queryscale":
            return EngineSpec(window=window, queryscale=QueryScaleOptions())
        if workload.kind == "proc":
            # A path relative to the working directory keeps the workers'
            # unix-socket paths short whatever the checkout is called.
            return EngineSpec(
                kind="sharded-proc",
                num_shards=2,
                window=window,
                proc=ProcOptions(data_dir=os.path.relpath(directory)),
            )
        return EngineSpec(window=window)

    def _build(self) -> MonitoringService:
        """Construct the service and, in a traced run, wrap its layers."""
        directory = self.tmp / f"s{self.setups}"
        self.setups += 1
        spec = self._spec(directory)
        analyzer = Analyzer()
        weighting = CosineWeighting()
        recorder = self.recorder
        if recorder is not None:
            recorder.patch(analyzer, "term_frequencies", "text.analyze")
            recorder.patch(weighting, "document_weights", "weighting.weights")
            recorder.patch(weighting, "query_weights", "weighting.weights")
        if self.workload.kind == "durable":
            service = MonitoringService.open(directory, spec, analyzer=analyzer, weighting=weighting)
        else:
            service = MonitoringService(spec, analyzer=analyzer, weighting=weighting)
        self.opened.append(service)
        if recorder is not None:
            self._install_spans(service, recorder)
        return service

    def _install_spans(self, service: MonitoringService, recorder: Recorder) -> None:
        engine_layer = "cluster" if self.workload.kind == "proc" else "core"
        engine = service.engine
        recorder.patch(engine, "process", f"{engine_layer}.process")
        recorder.patch(engine, "advance_time", f"{engine_layer}.process")
        recorder.patch(engine, "register_query", "core.register")
        recorder.patch(engine, "unregister_query", "core.unregister")
        recorder.patch(engine, "current_result", "core.result")
        recorder.patch(service.dispatcher, "process", "alerting.dispatch")
        recorder.patch(service.dispatcher, "advance_time", "alerting.dispatch")
        manager = service.queryscale
        if manager is not None:
            recorder.patch(manager, "begin_batch", "queryscale.batch")
            recorder.patch(manager, "end_batch", "queryscale.batch")
            recorder.patch(manager, "subscribe", "queryscale.subscribe")
            recorder.patch(manager, "result_for", "queryscale.result")
            expand = recorder.wrap(manager.expand_changes, "queryscale.expand")

            def counted_expand(changes: List[Any]) -> List[Any]:
                self.canonical_changes += len(changes)
                return expand(changes)

            service.dispatcher.set_transform(counted_expand)
        log = service.durability
        if log is not None:
            recorder.patch(log, "log_ingest", "durability.log_ingest")
            recorder.patch(log, "log_subscribe", "durability.log_subscribe")
            recorder.patch(log, "checkpoint", "durability.checkpoint")
            recorder.patch(service, "snapshot", "persistence.snapshot")

    def _root(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """A call the benchmark issues itself: a root span in a traced run."""
        return function if self.recorder is None else self.recorder.wrap(function, name)

    def set_up(self, prefill: List[str], queries: List[str]) -> Tuple[Timed, List[Timed]]:
        """Construct, pre-fill, subscribe.

        Returns how long it took and the median ``subscribe()`` latency of
        every group of ``SUBSCRIBE_GROUPS``-th of the subscriptions.  The
        calibration task runs between the groups, with the set-up's clock
        stopped, so each group's latency is reported relative to the host's
        speed in the same tens of milliseconds: one calibration around a
        whole set-up follows neither the bursts the host has nor the phase
        (subscribing) the latency comes from.
        Replaces ``self.service``; the previous one is closed first so at
        most one service (and one set of worker processes) is alive.
        """
        if self.service is not None:
            self.service.close()
            self.opened.remove(self.service)
            self.service = None
            self.handles = []
            gc.collect()
        self.times = []
        self.clock = 0.0
        self.arrival_rng = random.Random(f"{self.seed}:arrivals")
        calls = self.ingest_calls(prefill)
        poll_style = self.workload.kind == "durable"
        callback = None if poll_style else self.on_alert
        max_pending = 64 if poll_style else None
        k = self.workload.k
        group_size = max(SUBSCRIBE_GROUP_MIN, -(-len(queries) // SUBSCRIBE_GROUPS))
        calibrations = [self.calibration.measure(LONG_PASSES)]
        started = perf_counter()
        service = self._build()
        ingest = self._root(service.ingest, "service.ingest")
        subscribe = self._root(service.subscribe, "service.subscribe")
        for call in calls:
            ingest(*call)
        if poll_style:
            # Poll-style handles have no callback of their own; one global
            # observer stands at the same point to time alert delivery.
            service.on_change(self.on_alert)
        elapsed = perf_counter() - started
        handles = []
        medians: List[float] = []
        for first in range(0, len(queries), group_size):
            calibrations.append(self.calibration.measure())
            latencies: List[float] = []
            started = perf_counter()
            for text in queries[first : first + group_size]:
                before = perf_counter()
                handles.append(subscribe(text, k=k, on_change=callback, max_pending=max_pending))
                latencies.append(perf_counter() - before)
            elapsed += perf_counter() - started
            medians.append(percentile(sorted(latencies), 0.50))
        calibrations.append(self.calibration.measure(LONG_PASSES))
        self.service = service
        self.handles = handles
        self.attempted += len(calls) + len(queries)
        self.stamps.clear()
        # group i ran between calibrations i + 1 and i + 2
        subscribes = [
            Timed(median, (before + after) / 2)
            for median, before, after in zip(medians, calibrations[1:], calibrations[2:])
        ]
        return Timed(elapsed, statistics.fmean(calibrations)), subscribes

    # ------------------------------------------------------------------ #
    # the measured phase
    # ------------------------------------------------------------------ #
    def bind(self) -> None:
        """The calls the benchmark issues on the current service."""
        service = self.service
        assert service is not None
        self.ingest = self._root(service.ingest, "service.ingest")
        self.advance = self._root(service.advance_time, "service.advance_time")
        self.subscribe = self._root(service.subscribe, "service.subscribe")
        self.unsubscribe = self._root(lambda handle: handle.unsubscribe(), "service.unsubscribe")
        self.poll = self._root(lambda handle: handle.result(), "service.result")

    def warm_up(self, texts: List[str]) -> None:
        calls = self.ingest_calls(texts)
        for call in calls:
            self.ingest(*call)
        self.attempted += len(calls)
        self.stamps.clear()
        self.drain()

    def drain(self) -> None:
        """The subscribers read their buffered changes (clock stopped)."""
        for handle in self.handles:
            for _ in handle.changes():
                pass

    def run_block(self, operations: List[Operation]) -> Block:
        """Issue ``operations`` one after the other; returns the timings."""
        ingest, advance, subscribe, unsubscribe, poll = (
            self.ingest, self.advance, self.subscribe, self.unsubscribe, self.poll
        )
        handles = self.handles
        stamps = self.stamps
        on_alert = self.on_alert
        k = self.workload.k
        latencies: List[float] = []
        lateness: List[float] = []
        subscribes: List[float] = []
        returned = expiry_alerts = polls = 0
        cpu_started = process_time()
        started = perf_counter()
        for kind, payload, pick in operations:
            try:
                if kind == INGEST:
                    before = perf_counter()
                    changes = ingest(*payload)
                    latencies.append(perf_counter() - before)
                    returned += len(changes)
                    if stamps:
                        lateness.extend([stamp - before for stamp in stamps])
                        stamps.clear()
                elif kind == ADVANCE:
                    returned += len(advance(payload))
                    expiry_alerts += len(stamps)
                    stamps.clear()
                elif kind == SUBSCRIBE:
                    before = perf_counter()
                    handle = subscribe(payload, k=k, on_change=on_alert)
                    subscribes.append(perf_counter() - before)
                    handles.append(handle)
                elif len(handles) > 1:
                    index = int(payload * len(handles))
                    handles[index], handles[-1] = handles[-1], handles[index]
                    unsubscribe(handles.pop())
                if pick is not None:
                    poll(handles[int(pick * len(handles))])
                    polls += 1
            except Exception:  # a failed call counts against the run, which goes on
                self.failed += 1
                traceback.print_exc()
        wall = perf_counter() - started
        cpu = process_time() - cpu_started
        self.attempted += len(operations) + polls
        self.alerts_delivered += len(lateness) + expiry_alerts
        self.changes_returned += returned
        latencies.sort()
        lateness.sort()
        subscribes.sort()
        return Block(
            wall=wall,
            cpu=cpu,
            documents=len(latencies) * self.workload.batch,
            ingest_p50=percentile(latencies, 0.50),
            ingest_p99=percentile(latencies, 0.99),
            alert_p50=percentile(lateness, 0.50) if lateness else None,
            alert_p99=percentile(lateness, 0.99) if lateness else None,
            subscribe_p50=percentile(subscribes, 0.50) if subscribes else None,
        )

    def measure(self) -> Tuple[List[Block], Dict[str, Any]]:
        """Measure until time is up (and the counted prefix is done).

        Returns the blocks and what was captured at the end of the prefix.
        """
        workload = self.workload
        blocks: List[Block] = []
        prefix: Dict[str, Any] = {}
        wall = 0.0
        recorder = self.recorder
        calibration = self.calibration.measure()
        while len(blocks) < workload.prefix_blocks or wall < self.seconds:
            operations = self.next_block()
            mark = recorder.mark() if recorder is not None else 0
            block = self.run_block(operations)
            if recorder is not None:
                self.block_spans.append((mark, recorder.mark()))
            after = self.calibration.measure()
            block = block._replace(calibration=(calibration + after) / 2)
            calibration = after
            blocks.append(block)
            wall += block.wall
            self.drain()
            if len(blocks) == workload.prefix_blocks:
                prefix = self._at_prefix_end()
        # alerts delivered = changes returned: one callback entry per change
        self.attempted += 1
        if self.alerts_delivered != self.changes_returned:
            self.failed += 1
        return blocks, prefix

    def _at_prefix_end(self) -> Dict[str, Any]:
        """What is captured, clock stopped, at the end of the counted prefix."""
        service = self.service
        assert service is not None
        prefix: Dict[str, Any] = {
            "documents_fed": len(self.times),
            "alerts": self.alerts_delivered,
            "canonical_changes": self.canonical_changes,
            # The inputs up to here depend on the seed alone, so the digest
            # is the same in the untraced and the traced run.
            "inputs_sha256": self.digest.hexdigest(),
        }
        if self.recorder is not None:
            prefix["counters"] = service.counters.copy()
            prefix["span_mark"] = self.recorder.mark()
        if self.workload.kind == "durable":
            # The crash: a copy of the directory of a live, unclosed service
            # is what a kill at this instant would leave on disk (every WAL
            # append reaches the OS before ingest() returns).
            prefix["bytes_written"] = _bytes_written()
            prefix["results"] = _plain(service.results())
            prefix["crash_dir"] = self.tmp / "crash"
            shutil.copytree(service.durability.path, prefix["crash_dir"])
        return prefix

    # ------------------------------------------------------------------ #
    # checks
    # ------------------------------------------------------------------ #
    def check_final_results(self) -> Dict[int, List[Tuple[int, float]]]:
        """Compare every live subscription's top-k with the reference."""
        service = self.service
        assert service is not None
        workload = self.workload
        live = [handle for handle in self.handles if handle.active]
        queries = {handle.query_id: (handle.query.weights, handle.query.k) for handle in live}
        results = _plain(service.results())
        expected_ids = reference.expected_window_ids(
            self.times, count=workload.window, span=workload.window_span, now=self.clock
        )
        self.attempted += len(queries)
        self.failed += reference.count_mismatches(queries, results, service.window, expected_ids)
        if set(results) != set(queries):
            self.failed += 1
        return results

    def recover(self, source: Any, expected: Dict[int, List[Tuple[int, float]]]) -> Tuple[Timed, Any]:
        """Bring the state back in a fresh service, timed, and check it.

        ``source`` is a crash directory (the durable workload) or a snapshot.
        Returns how long it took and the public ``RecoveryReport`` (None for
        a snapshot).
        """
        bring_back = MonitoringService.open if self.workload.kind == "durable" else MonitoringService.restore
        calibration = self.calibration.measure(LONG_PASSES)
        before = perf_counter()
        recovered = bring_back(source)
        elapsed = perf_counter() - before
        calibration = (calibration + self.calibration.measure(LONG_PASSES)) / 2
        self.opened.append(recovered)
        self.attempted += 1 + len(expected)
        self.failed += reference.count_differences(expected, _plain(recovered.results()))
        report = recovered.last_recovery
        recovered.close()
        self.opened.remove(recovered)
        return Timed(elapsed, calibration), report

    def close(self) -> None:
        for service in self.opened:
            service.close()


def run_workload(
    workload: Workload, seed: int, seconds: float, traced: bool, quick: bool = False
) -> Dict[str, Any]:
    """Run ``workload`` once; returns its result record.

    Worker processes and durability directories are cleaned up on failure
    too.
    """
    if quick:
        workload = workload.quick()
    tmp = OUT_DIR / "tmp" / str(os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    run = _Run(workload, seed, seconds, traced, tmp)
    try:
        return _execute(run, quick)
    finally:
        try:
            run.close()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def _execute(run: _Run, quick: bool) -> Dict[str, Any]:
    workload = run.workload
    recorder = run.recorder
    traced = recorder is not None
    prefill = run.texts(workload.prefill)
    warmup = run.texts(WARMUP_DOCS)
    queries = run.query_texts(workload.queries) * workload.fanout

    # Set-up, several times over so that setup_s is a median; the traced
    # run reports no set-up time and sets up once.
    setups = []
    for _ in range(1 if traced else SETUP_REPEATS):
        children_cpu_before = _children_cpu()
        setups.append(run.set_up(prefill, queries))
    service = run.service
    assert service is not None

    # Warm-up through the same path, then a collection; the collector stays
    # enabled while timing.
    run.bind()
    run.warm_up(warmup)
    gc.collect()
    measured_from = len(run.times)
    canonical_before = run.canonical_changes
    counters_before = service.counters.copy() if recorder is not None else None
    span_mark = recorder.mark() if recorder is not None else 0
    bytes_before = _bytes_written()

    blocks, prefix = run.measure()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    vocab_size = len(service.vocabulary)
    window_size = len(service.window)

    final_results = run.check_final_results()

    # Bring the state back in a fresh service.
    layer: Dict[str, float] = {}
    before = perf_counter()
    snapshot = service.snapshot()
    layer["persistence.snapshot_ms"] = (perf_counter() - before) * 1e3
    blob = json.dumps(snapshot)
    layer["persistence.snapshot_bytes"] = len(blob)
    del snapshot
    if recorder is not None:
        _engine_side_metrics(run, layer)
    service.close()
    worker_cpu = _children_cpu() - children_cpu_before
    recoveries: List[Tuple[Timed, Any]] = []
    fewest, most = (1, 1) if traced else RECOVER_REPEATS
    while len(recoveries) < fewest or (
        len(recoveries) < most and sum(timed.seconds for timed, _ in recoveries) < RECOVER_BUDGET
    ):
        if workload.kind == "durable":
            # each recovery works on its own copy of what the crash left
            source: Any = run.tmp / f"crash{len(recoveries)}"
            shutil.copytree(prefix["crash_dir"], source)
            expected = prefix["results"]
        else:
            source = json.loads(blob)
            expected = final_results
        recoveries.append(run.recover(source, expected))
        gc.collect()

    documents = sum(block.documents for block in blocks)
    wall = sum(block.wall for block in blocks)
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "traced": traced,
        "quick": quick,
        "sizes": workload.sizes(),
        "inputs_sha256": prefix["inputs_sha256"],
        "attempted": run.attempted,
        "failed": run.failed,
        "correct": run.failed == 0,
        "samples": {
            "blocks": len(blocks),
            "ingest_calls": documents // workload.batch,
            "documents": documents,
            "alerts": run.alerts_delivered,
            "setups": len(setups),
            "recoveries": len(recoveries),
            "measured_wall_s": wall,
            # 1000 / docs_per_s, in the traced run too: their ratio is bench.trace_overhead
            "reported_ms_per_doc": statistics.median(
                Timed(block.wall / block.documents, block.calibration).reported for block in blocks
            ) * 1e3,
        },
    }
    if recorder is None:
        recovery_times = [timed for timed, _ in recoveries]
        record["metrics"] = _end_to_end(blocks, setups, recovery_times, peak_rss_mb, reported=True)
        # the same as measured, and what they were computed from
        record["raw_metrics"] = _end_to_end(blocks, setups, recovery_times, peak_rss_mb, reported=False)
        record["blocks"] = [block._asdict() for block in blocks]
        record["setups"] = [elapsed for elapsed, _ in setups]
        record["subscribe_groups"] = [groups for _, groups in setups]
        record["recoveries"] = recovery_times
        return record

    # ---- the traced run: the per-layer waterfall ----------------------- #
    # Only what ran inside the timed blocks: the checks between them go
    # through the wrapped layers too.
    self_times: Dict[str, List[float]] = {}
    for since, until in run.block_spans:
        for name, (total, count) in recorder.self_times(since, until).items():
            entry = self_times.setdefault(name, [0.0, 0])
            entry[0] += total
            entry[1] += count
    all_times = recorder.self_times()

    def per_doc(name: str) -> float:
        return self_times.get(name, (0.0, 0))[0] / documents * 1e3

    def per_span(name: str) -> float:
        total, count = all_times.get(name, (0.0, 0))
        return total / count * 1e3 if count else 0.0

    proc = workload.kind == "proc"
    layer["text.analyze_ms_per_doc"] = per_doc("text.analyze")
    layer["text.tokens_per_doc"] = run.tokens / run.generated
    layer["text.vocab_size"] = vocab_size
    layer["weighting.weights_ms_per_doc"] = per_doc("weighting.weights")
    layer["service.self_ms_per_doc"] = per_doc("service.ingest")
    layer["service.ingest_calls"] = documents // workload.batch
    layer["core.process_ms_per_doc"] = per_doc("core.process")
    layer["cluster.process_ms_per_doc"] = per_doc("cluster.process")
    layer["core.register_ms_per_query"] = per_span("core.register")
    layer["core.unregister_ms_per_query"] = per_span("core.unregister")
    layer["alerting.dispatch_ms_per_doc"] = per_doc("alerting.dispatch")
    layer["alerting.callback_ms_per_doc"] = per_doc("alerting.callback")
    layer["queryscale.batch_ms_per_doc"] = per_doc("queryscale.batch")
    layer["queryscale.expand_ms_per_doc"] = per_doc("queryscale.expand")
    layer["durability.log_ingest_ms_per_doc"] = per_doc("durability.log_ingest")
    checkpoints = recorder.durations("durability.checkpoint", span_mark)
    layer["durability.checkpoint_ms"] = statistics.fmean(checkpoints) * 1e3 if checkpoints else 0.0
    layer["documents.window_size"] = window_size
    layer["cluster.coordinator_cpu_ms_per_doc"] = (
        sum(block.cpu for block in blocks) / documents * 1e3 if proc else 0.0
    )
    layer["cluster.worker_cpu_ms_per_doc"] = worker_cpu / len(run.times) * 1e3 if proc else 0.0
    layer["cluster.worker_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0 if proc else 0.0
    )
    recovery, report = recoveries[0]
    if report is not None:
        layer["persistence.restore_ms"] = report.phase_ms["checkpoint_load"] + report.phase_ms["restore"]
        layer["durability.replayed_docs"] = report.replayed_documents
        layer["durability.replay_ms_per_doc"] = report.phase_ms["replay"] / max(1, report.replayed_documents)
    else:
        layer["persistence.restore_ms"] = recovery.seconds * 1e3
        layer["durability.replayed_docs"] = 0
        layer["durability.replay_ms_per_doc"] = 0.0

    # Counts over the counted prefix: they depend on the seed alone.
    counted = prefix["counters"] - counters_before
    counted_docs = prefix["documents_fed"] - measured_from
    canonical_changes = prefix["canonical_changes"] - canonical_before
    layer["core.scores_per_doc"] = counted.scores_computed / counted_docs
    layer["core.rollup_steps_per_doc"] = counted.rollup_steps / counted_docs
    layer["core.refills_per_doc"] = counted.refills / counted_docs
    layer["core.evictions_per_doc"] = counted.result_evictions / counted_docs
    layer["core.changes_per_score"] = (canonical_changes or prefix["alerts"]) / max(1, counted.scores_computed)
    layer["index.threshold_probes_per_doc"] = counted.threshold_probes / counted_docs
    layer["index.postings_scanned_per_doc"] = counted.postings_scanned / counted_docs
    layer["index.postings_inserted_per_doc"] = counted.postings_inserted / counted_docs
    layer["documents.expirations_per_doc"] = counted.expirations / counted_docs
    layer["alerting.alerts_per_doc"] = prefix["alerts"] / counted_docs
    layer["queryscale.fanout_ratio"] = prefix["alerts"] / canonical_changes if canonical_changes else 0.0
    if workload.kind == "durable":
        layer["durability.wal_bytes_per_doc"] = (prefix["bytes_written"] - bytes_before) / counted_docs
        layer["durability.checkpoints"] = len(
            recorder.durations("durability.checkpoint", span_mark, prefix["span_mark"])
        )
    else:
        layer["durability.wal_bytes_per_doc"] = 0.0
        layer["durability.checkpoints"] = 0

    attributed = sum(total for total, _ in self_times.values())
    spans = sum(count for _, count in self_times.values())
    layer["bench.traced_ms_per_doc"] = wall / documents * 1e3
    layer["bench.attributed_share"] = attributed / wall
    layer["bench.spans_per_doc"] = spans / documents
    record["metrics"] = layer
    record["self_time_share"] = {
        name: total / wall for name, (total, _) in sorted(self_times.items())
    }
    recorder.dump_chrome_trace(OUT_DIR / f"trace-{workload.name}.json")
    return record


def _end_to_end(
    blocks: List[Block],
    setups: List[Tuple[Timed, List[Timed]]],
    recoveries: List[Timed],
    peak_rss_mb: float,
    reported: bool,
) -> Dict[str, float]:
    """The end-to-end metrics: medians of the per-block (per-repeat) timings.

    ``reported`` timings are relative to the calibration measured beside
    them; otherwise they are as measured.
    """

    def over_blocks(field: str) -> List[Timed]:
        values = [(getattr(block, field), block.calibration) for block in blocks]
        return [Timed(value, calibration) for value, calibration in values if value is not None]

    def middle(timings: List[Timed]) -> float:
        return statistics.median(timed.reported if reported else timed.seconds for timed in timings)

    per_document = [Timed(block.wall / block.documents, block.calibration) for block in blocks]
    return {
        "docs_per_s": 1.0 / middle(per_document),
        "ingest_p50_ms": middle(over_blocks("ingest_p50")) * 1e3,
        "ingest_p99_ms": middle(over_blocks("ingest_p99")) * 1e3,
        "alert_p50_ms": middle(over_blocks("alert_p50")) * 1e3,
        "alert_p99_ms": middle(over_blocks("alert_p99")) * 1e3,
        # beside the stream where the workload subscribes there, else at set-up
        "subscribe_p50_ms": middle(
            over_blocks("subscribe_p50") or [group for _, groups in setups for group in groups]
        ) * 1e3,
        "setup_s": middle([elapsed for elapsed, _ in setups]),
        "recover_s": middle(recoveries),
        "peak_rss_mb": peak_rss_mb,
    }


def _engine_side_metrics(run: _Run, layer: Dict[str, float]) -> None:
    """Per-layer numbers that need the live service (traced run only)."""
    service = run.service
    assert service is not None
    manager = service.queryscale
    if manager is not None:
        layer["queryscale.canonical_queries"] = manager.canonical_count
        layer["queryscale.bytes_per_query"] = manager.bytes_resident() / max(1, manager.subscribed)
    else:
        layer["queryscale.canonical_queries"] = 0
        layer["queryscale.bytes_per_query"] = 0.0
    if run.workload.kind == "proc":
        engine = service.engine
        counts = engine.shard_query_counts()
        layer["cluster.shard_skew"] = max(counts) / (sum(counts) / len(counts))
        layer["net.worker_restarts"] = sum(engine.restart_counts())
        window = list(service.window)
        before = perf_counter()
        sizes = [len(json.dumps(document_record(streamed))) for streamed in window]
        layer["net.encode_ms_per_doc"] = (perf_counter() - before) / len(window) * 1e3
        layer["net.wire_bytes_per_doc"] = sum(sizes) / len(window) * engine.num_shards
    else:
        layer["cluster.shard_skew"] = 0.0
        layer["net.worker_restarts"] = 0
        layer["net.encode_ms_per_doc"] = 0.0
        layer["net.wire_bytes_per_doc"] = 0.0
