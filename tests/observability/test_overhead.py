"""The telemetry-overhead budget: instrumented figure-3a ingest <= 5%.

This test is the budget's only owner: a PR that regresses the
disabled-mode guard or bloats the per-batch instrumentation fails here, in
the tier-1 suite.  It measures the hot path every default service runs
(``prepare_engine`` + ``process_batch`` chunks on the figure-3a headline
point) with observability off and on.

Both sides of the ratio run the fused kernel on ``"columnar"`` storage
(the harness name ``"ita-columnar"``), which times its own stages once
observability is on.

Timing on a shared box is noisy, so the measurement is deliberately
defensive: the smoke workload is enlarged to 4000 measured events, the
plain and instrumented passes run interleaved (both see the same
scheduler drift), the per-chunk times are reduced with an elementwise
minimum across repeats (a jitter spike in one repeat cannot poison the
estimate), and the bound is checked on the best of three attempts.  The
true overhead of the kernel's lap timing sits around 2-4%.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

from repro.observability import runtime
from repro.workloads.experiments import figure_3a
from repro.workloads.generators import build_workload
from repro.workloads.perfjson import point_by_label
from repro.workloads.runner import measure_chunks, prepare_engine

OVERHEAD_BOUND = 1.05
REPEATS = 5  # interleaved plain/instrumented passes per attempt
ATTEMPTS = 3  # bound is checked on the best attempt
MEASURED_EVENTS = 4000
BATCH_SIZE = 64


def _figure3a_point():
    definition = figure_3a("smoke")
    point = point_by_label(definition, "n=10")
    return replace(point, config=replace(point.config, measured_events=MEASURED_EVENTS))


def _chunk_times(point, workload, instrumented: bool) -> list:
    """Per-chunk wall times for one full pass over the measured stream."""
    engine = prepare_engine("ita-columnar", point, workload)
    assert engine.index.backend.name == "columnar"
    measured = workload.measured
    with runtime.observed() if instrumented else nullcontext():
        _, samples = measure_chunks(engine.process_batch, measured, BATCH_SIZE)
    # a sample is its chunk's mean per-document ms; the last chunk is short
    return [
        sample * len(measured[start : start + BATCH_SIZE])
        for sample, start in zip(samples, range(0, len(measured), BATCH_SIZE))
    ]


def _overhead_ratio(point, workload) -> float:
    envelope_plain = None
    envelope_instr = None
    for _ in range(REPEATS):
        plain = _chunk_times(point, workload, instrumented=False)
        instr = _chunk_times(point, workload, instrumented=True)
        envelope_plain = (
            plain
            if envelope_plain is None
            else [min(a, b) for a, b in zip(envelope_plain, plain)]
        )
        envelope_instr = (
            instr
            if envelope_instr is None
            else [min(a, b) for a, b in zip(envelope_instr, instr)]
        )
    total_plain = sum(envelope_plain)
    assert total_plain > 0
    return sum(envelope_instr) / total_plain


def test_instrumented_figure3a_overhead_within_budget() -> None:
    point = _figure3a_point()
    workload = build_workload(point.config)
    # warm the allocator, the import graph and the child-instrument cache
    _chunk_times(point, workload, instrumented=False)
    _chunk_times(point, workload, instrumented=True)

    best = None
    for _ in range(ATTEMPTS):
        ratio = _overhead_ratio(point, workload)
        if best is None or ratio < best:
            best = ratio
        if best <= OVERHEAD_BOUND:
            break
    assert best <= OVERHEAD_BOUND, (
        f"instrumented figure-3a ingest is {best:.4f}x the batched hot path "
        f"(budget {OVERHEAD_BOUND}x)"
    )


def test_disabled_mode_is_effectively_free() -> None:
    """With observability off the hot path must be indistinguishable.

    Not a timing assertion (that would be noise) -- a structural one: the
    disabled-mode branch must not touch the registry, tracer or slowlog.
    """
    definition = figure_3a("smoke")
    point = point_by_label(definition, "n=10")
    workload = build_workload(point.config)
    assert runtime.active is False
    families_before = set(runtime.metrics.snapshot()["families"])
    spans_before = len(runtime.tracer)
    engine = prepare_engine("ita", point, workload)
    measure_chunks(engine.process_batch, workload.measured, BATCH_SIZE)
    assert set(runtime.metrics.snapshot()["families"]) == families_before
    assert len(runtime.tracer) == spans_before
    assert len(runtime.slowlog) == 0
