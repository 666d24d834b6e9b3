"""Telemetry must not change behavior: instrumented runs are bit-identical.

Replays a differential-conformance tape (the same generator the fuzz
suite uses) twice per backend -- once with observability disabled, once
under :func:`repro.observability.runtime.observed` -- and requires the
two runs to agree *bit for bit* on every surface the fuzz suite compares:
change streams, top-k digests, operation counters, service snapshots and
per-query alert streams.  Instrumentation that reordered dispatch, took a
different ingest route, or perturbed a single counter fails here.
"""

from __future__ import annotations

import pytest

from repro.observability import runtime
from tests.conformance.test_differential_fuzz import (
    SHARDED,
    generate_tape,
    run_async,
    run_sync,
)

SEED = 1101  # a tie-free tape: every comparison is exact


def _as_comparable(log):
    return {
        "changes": log.changes,
        "digests": log.digests,
        "counters": log.counters,
        "snapshots": log.snapshots,
        "alerts": dict(log.alerts),
    }


@pytest.mark.parametrize("engine_name", ["ita", SHARDED])
def test_sync_replay_is_bit_identical_under_instrumentation(engine_name) -> None:
    tape = generate_tape(SEED, tie_heavy=False, num_ops=220)
    plain = run_sync(engine_name, tape)
    with runtime.observed():
        instrumented = run_sync(engine_name, tape)
    assert _as_comparable(instrumented) == _as_comparable(plain)


def test_async_replay_is_bit_identical_under_instrumentation() -> None:
    tape = generate_tape(SEED, tie_heavy=False, num_ops=220)
    plain = run_async(SHARDED, tape)
    with runtime.observed():
        instrumented = run_async(SHARDED, tape)
    assert _as_comparable(instrumented) == _as_comparable(plain)


def test_instrumented_replay_actually_recorded_telemetry() -> None:
    """Guard against the guard: the observed run must produce metrics."""
    tape = generate_tape(SEED, tie_heavy=False, num_ops=120)
    with runtime.observed() as registry:
        # the default storage: per-stage time comes from the columnar kernel
        run_sync("ita", tape, storage="columnar")
        families = registry.snapshot()["families"]
    assert families["repro_service_ingest_documents_total"]["samples"][0]["value"] > 0
    assert families["repro_service_subscribe_total"]["samples"][0]["value"] > 0
    stages = {
        sample["labels"]["stage"]
        for sample in families["repro_engine_stage_ms_total"]["samples"]
    }
    assert {"expire", "arrival"} <= stages
