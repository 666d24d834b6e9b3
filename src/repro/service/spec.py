"""Typed engine specifications.

Historically every entry point constructed engines its own way: the
experiment harness mapped magic strings plus an untyped options dict to
constructor calls, the cluster hand-wired window/engine factories, and the
examples called constructors directly.  :class:`EngineSpec` replaces that
with one typed, validated, serialisable description of *any* engine --
single or sharded -- that every construction path shares:

* :meth:`EngineSpec.build` constructs the engine;
* :meth:`EngineSpec.to_dict` / :meth:`EngineSpec.from_dict` round-trip the
  spec through plain JSON-compatible dictionaries (the window encoding is
  the same one the persistence snapshots use);
* a *registry* maps engine kinds to builders, so the ITA engine, the
  baselines and the sharded cluster are all constructed one way, and
  applications can register their own kinds with
  :func:`register_engine_kind`;
* :func:`spec_from_name` keeps the legacy string names of the experiment
  harness ("ita", "naive-kmax", "sharded-ita-4", ...) working as thin
  aliases that resolve to specs.

The sliding window is described by :class:`WindowSpec` and, for sharded
specs, the cost-model placement can be calibrated to the workload's
dimensions with :class:`PlacementCalibration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.baselines.kmax import (
    AdaptiveKMaxPolicy,
    AnalyticalKMaxPolicy,
    FixedKMaxPolicy,
    KMaxNaiveEngine,
    KMaxPolicy,
)
from repro.baselines.naive import NaiveEngine
from repro.baselines.oracle import OracleEngine
from repro.core.base import MonitoringEngine
from repro.core.descent import ProbeOrder
from repro.core.engine import ITAEngine
from repro.documents.window import WindowSpec
from repro.durability.policy import DurabilityPolicy
from repro.exceptions import ConfigurationError, UnknownEngineError
from repro.index.backend import DEFAULT_STORAGE, storage_backends
from repro.net.options import ProcOptions
from repro.queryscale.options import QueryScaleOptions

__all__ = [
    "WindowSpec",
    "PlacementCalibration",
    "DurabilityPolicy",
    "ProcOptions",
    "QueryScaleOptions",
    "EngineSpec",
    "EngineKind",
    "register_engine_kind",
    "engine_kinds",
    "spec_from_name",
]

#: placement policy names understood by sharded specs (mirrors
#: ``repro.cluster.placement``, kept literal so this module never has to
#: import the cluster -- which would be circular via the cost model)
_PLACEMENT_NAMES = ("round-robin", "hash", "cost")

#: k_max policy names understood by "naive-kmax" specs
_KMAX_POLICIES = ("fixed", "adaptive", "analytical")

#: the kinds that partition queries over shards (in-process engines
#: or worker processes); they share the sharded field block below
_CLUSTER_KINDS = ("sharded", "sharded-proc")


# --------------------------------------------------------------------------- #
# placement calibration (sharded specs with cost-model placement)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlacementCalibration:
    """Workload dimensions parameterising the cost-model placement.

    They only need to be in the right ballpark -- placement depends on the
    *relative* per-query cost -- but calibrating them to the actual
    workload (as the experiment harness does) makes the shard balance
    estimates meaningful.
    """

    dictionary_size: int = 20_000
    mean_doc_terms: float = 60.0
    window_size: int = 1_000

    def validate(self) -> None:
        if self.dictionary_size <= 0:
            raise ConfigurationError("dictionary_size must be positive")
        if self.mean_doc_terms <= 0:
            raise ConfigurationError("mean_doc_terms must be positive")
        if self.window_size <= 0:
            raise ConfigurationError("window_size must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dictionary_size": self.dictionary_size,
            "mean_doc_terms": self.mean_doc_terms,
            "window_size": self.window_size,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlacementCalibration":
        return cls(
            dictionary_size=int(data.get("dictionary_size", 20_000)),
            mean_doc_terms=float(data.get("mean_doc_terms", 60.0)),
            window_size=int(data.get("window_size", 1_000)),
        )


# --------------------------------------------------------------------------- #
# engine specification
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class EngineSpec:
    """A typed, validated, serialisable description of a monitoring engine.

    Only the fields relevant to ``kind`` are consulted when building; the
    others keep their defaults and are carried through serialisation
    unchanged.  ``validate()`` rejects values that are invalid for the
    declared kind (unknown probe orders, non-positive shard counts, nested
    sharding, ...).

    Examples
    --------
    >>> EngineSpec()                                    # doctest: +ELLIPSIS
    EngineSpec(kind='ita', ...)
    >>> spec = EngineSpec(kind="sharded", num_shards=4,
    ...                   window=WindowSpec.count(500))
    >>> engine = spec.build()
    >>> engine.num_shards
    4
    >>> EngineSpec.from_dict(spec.to_dict()) == spec
    True
    """

    #: registered engine kind: "ita", "naive", "naive-kmax", "oracle",
    #: "sharded", or any kind added via :func:`register_engine_kind`
    kind: str = "ita"
    window: WindowSpec = field(default_factory=WindowSpec)
    #: when True (default) ``process()`` reports per-query result changes;
    #: benchmarks disable it to skip the diffing cost
    track_changes: bool = True
    # -- ITA knobs ------------------------------------------------------- #
    #: threshold-descent probe order: "weighted" (the paper's) or "round_robin"
    probe_order: str = ProbeOrder.WEIGHTED.value
    #: threshold roll-up on result entry (the paper's design; ablations disable)
    enable_rollup: bool = True
    #: storage backend of the scoring state: "columnar" (the default --
    #: array columns, fused kernels, no list for a term until a query
    #: watches it) or "bisect" (the paper-faithful reference containers and
    #: conformance oracle); any name registered via repro.index.backend.
    #: Consulted by the kinds that build an inverted index -- "ita"
    #: directly, the cluster kinds through their default shard spec -- and
    #: carried through otherwise.  Results, change streams and counters do
    #: not depend on it, and a snapshot restores onto either.
    storage: str = DEFAULT_STORAGE
    # -- k_max-Naive knobs ----------------------------------------------- #
    #: "fixed", "adaptive" or "analytical"
    kmax_policy: str = "fixed"
    #: k_max/k ratio of the fixed policy (initial ratio of the adaptive one)
    kmax_multiplier: float = 2.0
    # -- sharded knobs ---------------------------------------------------- #
    num_shards: int = 2
    #: "round-robin", "hash" or "cost"
    placement: str = "cost"
    #: optional cost-model calibration (sharded + cost placement only)
    calibration: Optional[PlacementCalibration] = None
    #: spec of the per-shard engine; defaults to ITA with this spec's
    #: window and change tracking
    inner: Optional["EngineSpec"] = None
    #: transport/supervision knobs of the out-of-process cluster; only
    #: valid on kind "sharded-proc" (``None`` there means the defaults)
    proc: Optional[ProcOptions] = None
    #: query canonicalization / compaction / hibernation knobs consumed by
    #: the service façade (:mod:`repro.queryscale`); ``None`` (default)
    #: means the feature is off.  Valid on every kind -- the layer sits
    #: above the engine, which only ever sees canonical queries.
    queryscale: Optional[QueryScaleOptions] = None
    # -- durability ------------------------------------------------------- #
    #: write-ahead-log policy consumed by
    #: :meth:`~repro.service.MonitoringService.open`; ``None`` (default)
    #: describes a memory-only engine.  ``build()`` ignores it -- the
    #: engine itself is identical either way.
    durability: Optional[DurabilityPolicy] = None

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the spec's fields against its declared kind.

        Raises
        ------
        UnknownEngineError
            If ``kind`` is not a registered engine kind.
        ConfigurationError
            If any field is invalid for the declared kind (unknown probe
            order or placement policy, non-positive shard count, nested
            sharding, analytical k_max over a time-based window,
            mismatched inner spec, ...).
        """
        if self.kind not in _KINDS:
            raise UnknownEngineError(
                f"unknown engine kind {self.kind!r}; registered kinds: "
                f"{', '.join(engine_kinds())}"
            )
        self.window.validate()
        try:
            ProbeOrder(self.probe_order)
        except ValueError:
            raise ConfigurationError(
                f"unknown probe order {self.probe_order!r}; expected one of "
                f"{[order.value for order in ProbeOrder]}"
            ) from None
        if self.storage not in storage_backends():
            raise ConfigurationError(
                f"unknown storage backend {self.storage!r}; "
                f"expected one of {storage_backends()}"
            )
        if self.kmax_policy not in _KMAX_POLICIES:
            raise ConfigurationError(
                f"unknown k_max policy {self.kmax_policy!r}; "
                f"expected one of {list(_KMAX_POLICIES)}"
            )
        if self.kmax_multiplier < 1.0:
            raise ConfigurationError("kmax_multiplier must be >= 1")
        if (
            self.kind == "naive-kmax"
            and self.kmax_policy == "analytical"
            and self.window.kind != "count"
        ):
            # The analytical k_max derivation is parameterised by the
            # window population N; a time-based window has no fixed N, so
            # rather than guessing one silently the combination is
            # rejected (use the adaptive policy for time-based windows).
            raise ConfigurationError(
                "the analytical k_max policy needs a count-based window; "
                "use kmax_policy='adaptive' with time-based windows"
            )
        if self.num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        if self.placement not in _PLACEMENT_NAMES:
            raise ConfigurationError(
                f"unknown placement policy {self.placement!r}; "
                f"expected one of {list(_PLACEMENT_NAMES)}"
            )
        if self.calibration is not None:
            self.calibration.validate()
        if self.durability is not None:
            self.durability.validate()
        if self.proc is not None:
            if self.kind != "sharded-proc":
                raise ConfigurationError(
                    f"proc options only apply to 'sharded-proc' engines, not {self.kind!r}"
                )
            self.proc.validate()
        if self.queryscale is not None:
            self.queryscale.validate()
        if self.inner is not None:
            if self.kind not in _CLUSTER_KINDS:
                raise ConfigurationError(
                    f"inner specs only apply to sharded engines, not {self.kind!r}"
                )
            if self.inner.kind in _CLUSTER_KINDS:
                raise ConfigurationError("sharded engines cannot be nested")
            if self.inner.track_changes != self.track_changes:
                # The cluster advertises the outer flag but the merged
                # change lists come from the shards: a mismatch would
                # either silently drop every alert or silently pay the
                # diffing cost the caller turned off.
                raise ConfigurationError(
                    "inner spec track_changes must match the sharded spec "
                    f"({self.inner.track_changes} != {self.track_changes})"
                )
            if self.inner.window != self.window:
                # Shards are built from the *outer* window spec (one
                # private window each); a different inner window would be
                # silently ignored.
                raise ConfigurationError(
                    "inner spec window must match the sharded spec window "
                    "(shards are built from the outer window)"
                )
            self.inner.validate()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build(self) -> MonitoringEngine:
        """Construct the described engine (window included).

        Returns
        -------
        MonitoringEngine
            A fresh engine of the declared kind over a fresh window.

        Raises
        ------
        UnknownEngineError, ConfigurationError
            As raised by :meth:`validate`.
        """
        self.validate()
        return _KINDS[self.kind].build(self)

    def shard_spec(self) -> "EngineSpec":
        """The effective per-shard spec of a sharded engine.

        Returns
        -------
        EngineSpec
            The explicit ``inner`` spec when set; otherwise an ITA spec
            inheriting this spec's window and change tracking.

        Raises
        ------
        ConfigurationError
            If this spec is not of a cluster kind (``"sharded"`` or
            ``"sharded-proc"``).
        """
        if self.kind not in _CLUSTER_KINDS:
            raise ConfigurationError(f"{self.kind!r} specs have no shards")
        if self.inner is not None:
            return self.inner
        return EngineSpec(
            kind="ita",
            window=self.window,
            track_changes=self.track_changes,
            storage=self.storage,
        )

    def placement_policy(self):
        """The placement argument for a :class:`ShardedEngine`.

        Returns the calibrated cost-model policy instance when the spec
        carries a :class:`PlacementCalibration`, and the policy name
        otherwise.

        Returns
        -------
        str or PlacementPolicy
            The policy name for uncalibrated specs, or a calibrated
            :class:`~repro.cluster.placement.CostModelPlacement` instance.

        Raises
        ------
        ConfigurationError
            If this spec is not of a cluster kind.
        """
        if self.kind not in _CLUSTER_KINDS:
            raise ConfigurationError(f"{self.kind!r} specs have no placement")
        if self.placement != "cost" or self.calibration is None:
            return self.placement
        # Imported lazily: the cluster's cost-model placement imports
        # repro.workloads, whose runner imports this module.
        from repro.cluster.placement import CostModelPlacement

        return CostModelPlacement(
            self.num_shards,
            dictionary_size=self.calibration.dictionary_size,
            mean_doc_terms=self.calibration.mean_doc_terms,
            window_size=self.calibration.window_size,
        )

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-compatible encoding of the spec.

        Returns
        -------
        dict
            All scalar fields plus the window encoding (and, when set,
            the calibration and inner-spec encodings);
            :meth:`from_dict` inverts it exactly.
        """
        data: Dict[str, Any] = {
            "kind": self.kind,
            "window": self.window.to_dict(),
            "track_changes": self.track_changes,
            "probe_order": self.probe_order,
            "enable_rollup": self.enable_rollup,
            "storage": self.storage,
            "kmax_policy": self.kmax_policy,
            "kmax_multiplier": self.kmax_multiplier,
            "num_shards": self.num_shards,
            "placement": self.placement,
        }
        if self.calibration is not None:
            data["calibration"] = self.calibration.to_dict()
        if self.inner is not None:
            data["inner"] = self.inner.to_dict()
        if self.proc is not None:
            data["proc"] = self.proc.to_dict()
        if self.queryscale is not None:
            data["queryscale"] = self.queryscale.to_dict()
        if self.durability is not None:
            data["durability"] = self.durability.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Missing keys fall back to the defaults, so old serialised specs
        stay loadable as new knobs are added.
        """
        calibration = data.get("calibration")
        inner = data.get("inner")
        proc = data.get("proc")
        queryscale = data.get("queryscale")
        durability = data.get("durability")
        defaults = cls()
        return cls(
            kind=str(data.get("kind", defaults.kind)),
            window=(
                WindowSpec.from_dict(data["window"])
                if "window" in data
                else defaults.window
            ),
            track_changes=bool(data.get("track_changes", defaults.track_changes)),
            probe_order=str(data.get("probe_order", defaults.probe_order)),
            enable_rollup=bool(data.get("enable_rollup", defaults.enable_rollup)),
            storage=str(data.get("storage", defaults.storage)),
            kmax_policy=str(data.get("kmax_policy", defaults.kmax_policy)),
            kmax_multiplier=float(data.get("kmax_multiplier", defaults.kmax_multiplier)),
            num_shards=int(data.get("num_shards", defaults.num_shards)),
            placement=str(data.get("placement", defaults.placement)),
            calibration=(
                PlacementCalibration.from_dict(calibration)
                if calibration is not None
                else None
            ),
            inner=cls.from_dict(inner) if inner is not None else None,
            proc=ProcOptions.from_dict(proc) if proc is not None else None,
            queryscale=(
                QueryScaleOptions.from_dict(queryscale)
                if queryscale is not None
                else None
            ),
            durability=(
                DurabilityPolicy.from_dict(durability)
                if durability is not None
                else None
            ),
        )

    def with_overrides(self, **kwargs: Any) -> "EngineSpec":
        """A copy of the spec with the given fields replaced."""
        return replace(self, **kwargs)


# --------------------------------------------------------------------------- #
# the engine-kind registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class EngineKind:
    """One registered engine kind: ``build`` constructs the engine from a
    spec, window included."""

    name: str
    build: Callable[[EngineSpec], MonitoringEngine]
    description: str = ""


_KINDS: Dict[str, EngineKind] = {}


def register_engine_kind(
    name: str,
    build: Callable[[EngineSpec], MonitoringEngine],
    description: str = "",
    replace_existing: bool = False,
) -> EngineKind:
    """Register an engine kind under ``name``; ``build(spec)`` is its one
    builder and makes the engine's own window (``spec.window.build()``)."""
    if name in _KINDS and not replace_existing:
        raise ConfigurationError(f"engine kind {name!r} is already registered")
    kind = EngineKind(name=name, build=build, description=description)
    _KINDS[name] = kind
    return kind


def engine_kinds() -> List[str]:
    """The registered engine kinds, sorted."""
    return sorted(_KINDS)


# --------------------------------------------------------------------------- #
# builtin kinds
# --------------------------------------------------------------------------- #
def _build_ita(spec: EngineSpec) -> ITAEngine:
    return ITAEngine(
        spec.window.build(),
        track_changes=spec.track_changes,
        enable_rollup=spec.enable_rollup,
        probe_order=ProbeOrder(spec.probe_order),
        storage=spec.storage,
    )


def _build_naive(spec: EngineSpec) -> NaiveEngine:
    return NaiveEngine(spec.window.build(), track_changes=spec.track_changes)


def _kmax_policy(spec: EngineSpec) -> KMaxPolicy:
    if spec.kmax_policy == "adaptive":
        return AdaptiveKMaxPolicy(initial_multiplier=spec.kmax_multiplier)
    if spec.kmax_policy == "analytical":
        # validate() guarantees a count-based window here.
        return AnalyticalKMaxPolicy(window_size=spec.window.size)
    return FixedKMaxPolicy(spec.kmax_multiplier)


def _build_kmax(spec: EngineSpec) -> KMaxNaiveEngine:
    return KMaxNaiveEngine(
        spec.window.build(), policy=_kmax_policy(spec), track_changes=spec.track_changes
    )


def _build_oracle(spec: EngineSpec) -> OracleEngine:
    return OracleEngine(spec.window.build(), track_changes=spec.track_changes)


def _build_sharded(spec: EngineSpec) -> MonitoringEngine:
    # Imported lazily: the cluster's cost-model placement imports
    # repro.workloads, whose runner imports this module.
    from repro.cluster.engine import ShardedEngine

    return ShardedEngine(
        num_shards=spec.num_shards,
        shard_factory=spec.shard_spec().build,
        placement=spec.placement_policy(),
        track_changes=spec.track_changes,
    )


register_engine_kind(
    "ita", _build_ita, description="the paper's Incremental Threshold Algorithm"
)
register_engine_kind("naive", _build_naive, description="scan-and-recompute baseline")
register_engine_kind(
    "naive-kmax",
    _build_kmax,
    description="Naive with materialised top-k_max views (Yi et al.)",
)
register_engine_kind(
    "oracle", _build_oracle, description="recompute-from-scratch ground truth"
)
def _build_proc(spec: EngineSpec) -> MonitoringEngine:
    # Imported lazily: the coordinator pulls in the whole net/cluster
    # stack, which this module must not load at import time.
    from repro.net.cluster import ProcessClusterEngine

    return ProcessClusterEngine(
        num_workers=spec.num_shards,
        shard_spec=spec.shard_spec(),
        window_spec=spec.window,
        placement=spec.placement_policy(),
        track_changes=spec.track_changes,
        options=spec.proc,
    )


register_engine_kind(
    "sharded",
    _build_sharded,
    description="query-sharded cluster over any inner engine kind",
)
register_engine_kind(
    "sharded-proc",
    _build_proc,
    description="query-sharded cluster of worker processes over framed RPC",
)


# --------------------------------------------------------------------------- #
# legacy string names
# --------------------------------------------------------------------------- #
#: legacy single-engine names -> spec field overrides
_NAME_ALIASES: Dict[str, Dict[str, Any]] = {
    "ita": {"kind": "ita"},
    "ita-no-rollup": {"kind": "ita", "enable_rollup": False},
    "ita-round-robin": {"kind": "ita", "probe_order": ProbeOrder.ROUND_ROBIN.value},
    "ita-columnar": {"kind": "ita", "storage": "columnar"},
    "naive": {"kind": "naive"},
    "naive-kmax": {"kind": "naive-kmax"},
    "oracle": {"kind": "oracle"},
}


def spec_from_name(
    name: str,
    window: Optional[WindowSpec] = None,
    track_changes: bool = True,
    options: Optional[Mapping[str, Any]] = None,
    calibration: Optional[PlacementCalibration] = None,
) -> EngineSpec:
    """Resolve a legacy engine name into an :class:`EngineSpec`.

    Single-engine names are "ita", "ita-no-rollup", "ita-round-robin",
    "ita-columnar", "naive", "naive-kmax" and "oracle".  Sharded names are
    ``"sharded-<inner>"`` (shard count from ``options["num_shards"]``,
    default 2) or ``"sharded-<inner>-<N>"`` with the count inlined; a bare
    ``"sharded"`` means ITA shards.  ``options`` carries the historical
    untyped knobs (``kmax_multiplier``, ``num_shards``, ``placement``,
    ``storage``).

    These names are the figure harness's, and there they mean the
    paper-faithful engine: storage is ``"bisect"`` unless the name
    (``-columnar``) or ``options["storage"]`` says otherwise -- not
    :data:`~repro.index.backend.DEFAULT_STORAGE`, so a harness cell keyed
    ``"bisect"`` measures what its key says.

    New code should construct :class:`EngineSpec` directly; this exists so
    the experiment harness's engine names resolve through the same
    registry as everything else.
    """
    options = dict(options or {})
    window = window if window is not None else WindowSpec()

    # "sharded-proc[-N]" must be peeled off before the generic
    # "sharded-<inner>" grammar, which would mis-read "proc" as an inner
    # engine name.  Proc clusters always run ITA shards.
    if name == "sharded-proc" or name.startswith("sharded-proc-"):
        suffix = name[len("sharded-proc"):].lstrip("-")
        if suffix and not suffix.isdigit():
            raise UnknownEngineError(
                f"unknown engine name {name!r}; proc clusters are named "
                "sharded-proc or sharded-proc-<N>"
            )
        num_shards = int(suffix) if suffix else int(options.get("num_shards", 2))
        inner = spec_from_name(
            "ita", window=window, track_changes=track_changes, options=options
        )
        return EngineSpec(
            kind="sharded-proc",
            window=window,
            track_changes=track_changes,
            num_shards=num_shards,
            placement=str(options.get("placement", "cost")),
            calibration=calibration,
            storage=inner.storage,
            inner=inner,
        )

    if name == "sharded" or name.startswith("sharded-"):
        parts = name.split("-")[1:]
        if parts and parts[-1].isdigit():
            num_shards = int(parts[-1])
            inner_name = "-".join(parts[:-1])
        else:
            num_shards = int(options.get("num_shards", 2))
            inner_name = "-".join(parts)
        if not inner_name:
            inner_name = "ita"
        inner = spec_from_name(
            inner_name, window=window, track_changes=track_changes, options=options
        )
        return EngineSpec(
            kind="sharded",
            window=window,
            track_changes=track_changes,
            num_shards=num_shards,
            placement=str(options.get("placement", "cost")),
            calibration=calibration,
            storage=inner.storage,
            inner=inner,
        )

    overrides = _NAME_ALIASES.get(name)
    if overrides is None:
        raise UnknownEngineError(
            f"unknown engine name {name!r}; known names: "
            f"{', '.join(sorted(_NAME_ALIASES))}, sharded-<inner>[-<N>], "
            "sharded-proc[-<N>]"
        )
    if "kmax_multiplier" in options:
        overrides = {**overrides, "kmax_multiplier": float(options["kmax_multiplier"])}
    overrides = {"storage": str(options.get("storage", "bisect")), **overrides}
    return EngineSpec(window=window, track_changes=track_changes, **overrides)
