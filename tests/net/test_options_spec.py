"""ProcOptions and the "sharded-proc" EngineSpec: validation + codec."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, UnknownEngineError
from repro.net.options import ProcOptions
from repro.service import EngineSpec, WindowSpec, spec_from_name


# --------------------------------------------------------------------------- #
# ProcOptions
# --------------------------------------------------------------------------- #
def test_proc_options_round_trip():
    options = ProcOptions(
        transport="tcp",
        data_dir="/tmp/proc-data",
        request_timeout_ms=5_000.0,
        connect_timeout_ms=2_000.0,
        max_restarts=3,
        backoff_ms=10.0,
        start_method="fork",
    )
    assert ProcOptions.from_dict(options.to_dict()) == options


def test_proc_options_defaults_round_trip_and_omit_data_dir():
    options = ProcOptions()
    encoded = options.to_dict()
    assert "data_dir" not in encoded
    assert ProcOptions.from_dict(encoded) == options
    assert ProcOptions.from_dict({}) == options  # missing keys = defaults


def test_unknown_proc_option_is_named():
    with pytest.raises(ConfigurationError, match="'trnsport'"):
        ProcOptions.from_dict({"trnsport": "unix"})


def test_legacy_checkpoint_every_is_accepted_and_ignored():
    # Specs and durability manifests written while workers checkpointed
    # carry the key; they must reopen.
    legacy = {**ProcOptions(max_restarts=3).to_dict(), "checkpoint_every": 512}
    assert ProcOptions.from_dict(legacy) == ProcOptions(max_restarts=3)
    spec = EngineSpec.from_dict(
        {**EngineSpec(kind="sharded-proc", num_shards=2).to_dict(), "proc": legacy}
    )
    assert spec.proc == ProcOptions(max_restarts=3)
    assert "checkpoint_every" not in ProcOptions().to_dict()
    with pytest.raises(ConfigurationError, match="'checkpoint_evry'"):
        ProcOptions.from_dict({**legacy, "checkpoint_evry": 512})
    with pytest.raises(TypeError):
        ProcOptions(checkpoint_every=512)


def test_unknown_transport_is_named():
    with pytest.raises(ConfigurationError, match="transport 'carrier-pigeon'"):
        ProcOptions(transport="carrier-pigeon").validate()
    with pytest.raises(ConfigurationError, match="transport"):
        ProcOptions.from_dict({"transport": "udp"})


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("request_timeout_ms", 0, "request_timeout_ms"),
        ("connect_timeout_ms", -1, "connect_timeout_ms"),
        ("max_restarts", -1, "max_restarts"),
        ("backoff_ms", -0.5, "backoff_ms"),
        ("start_method", "threads", "start_method"),
        ("request_timeout_ms", float("nan"), "request_timeout_ms"),
        ("request_timeout_ms", float("inf"), "request_timeout_ms"),
        ("connect_timeout_ms", float("nan"), "connect_timeout_ms"),
        ("connect_timeout_ms", float("inf"), "connect_timeout_ms"),
        ("backoff_ms", float("nan"), "backoff_ms"),
        ("backoff_ms", float("inf"), "backoff_ms"),
    ],
)
def test_invalid_worker_options_name_the_field(field, value, match):
    with pytest.raises(ConfigurationError, match=match):
        ProcOptions(**{field: value}).validate()


# --------------------------------------------------------------------------- #
# EngineSpec integration
# --------------------------------------------------------------------------- #
def test_spec_round_trip_with_proc_options():
    spec = EngineSpec(
        kind="sharded-proc",
        num_shards=3,
        window=WindowSpec.count(64),
        placement="hash",
        proc=ProcOptions(transport="tcp", max_restarts=3),
    )
    spec.validate()
    encoded = spec.to_dict()
    assert encoded["proc"]["transport"] == "tcp"
    assert EngineSpec.from_dict(encoded) == spec


def test_spec_without_proc_options_round_trips():
    spec = EngineSpec(kind="sharded-proc", num_shards=2)
    spec.validate()
    encoded = spec.to_dict()
    assert "proc" not in encoded
    assert EngineSpec.from_dict(encoded) == spec


def test_proc_options_on_non_proc_kind_are_rejected():
    spec = EngineSpec(kind="sharded", num_shards=2, proc=ProcOptions())
    with pytest.raises(ConfigurationError, match="sharded-proc"):
        spec.validate()
    with pytest.raises(ConfigurationError, match="sharded-proc"):
        EngineSpec(kind="ita", proc=ProcOptions()).validate()


def test_invalid_proc_options_fail_spec_validation():
    spec = EngineSpec(
        kind="sharded-proc", num_shards=2, proc=ProcOptions(transport="udp")
    )
    with pytest.raises(ConfigurationError, match="transport"):
        spec.validate()


def test_nested_proc_cluster_is_rejected():
    inner = EngineSpec(kind="sharded-proc", num_shards=2)
    spec = EngineSpec(kind="sharded", num_shards=2, inner=inner)
    with pytest.raises(ConfigurationError, match="nested"):
        spec.validate()


def test_spec_from_name_parses_proc_names():
    assert spec_from_name("sharded-proc").kind == "sharded-proc"
    spec = spec_from_name("sharded-proc-4", window=WindowSpec.count(10))
    assert (spec.kind, spec.num_shards) == ("sharded-proc", 4)
    with pytest.raises(UnknownEngineError):
        spec_from_name("sharded-proc-banana")
