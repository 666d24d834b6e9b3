"""Configuration of the query-scale subsystem.

:class:`QueryScaleOptions` is the knob block that switches on query
canonicalization/dedup and shared-vocabulary weight compaction for a
service (see :mod:`repro.queryscale.manager`).  It plugs into
:class:`~repro.service.spec.EngineSpec` exactly like the cluster and
durability blocks: a frozen dataclass with ``validate``/``to_dict``/
``from_dict`` and *strict* unknown-key rejection on decode, so a typo in
a persisted spec fails loudly instead of silently running without dedup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping

from repro.exceptions import ConfigurationError

__all__ = ["QueryScaleOptions"]

#: keys of the removed cold-query hibernation; a persisted spec that holds
#: one with a value it was once accepted with (a non-negative int) still
#: decodes, and the key is dropped
_LEGACY_KEYS = ("hibernate_after", "max_resident")


@dataclass(frozen=True)
class QueryScaleOptions:
    """Knobs of the query-scale layer (dedup and compaction).

    Parameters
    ----------
    dedup:
        Share one scored canonical entry between subscriptions whose
        normalised ``(k, term/weight set)`` coincide.  This is the switch
        for the whole subsystem: with ``dedup=False`` the service behaves
        exactly as without a queryscale block.
    compact_weights:
        Store canonical query weights in interned ``array``-based tables
        (shared term-id arrays) instead of per-query dicts; see
        :class:`repro.queryscale.interning.TermTable`.
    """

    dedup: bool = True
    compact_weights: bool = True

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the option block.

        Raises
        ------
        ConfigurationError
            If a flag is not boolean.
        """
        for flag in ("dedup", "compact_weights"):
            if not isinstance(getattr(self, flag), bool):
                raise ConfigurationError(f"queryscale option {flag!r} must be a bool")

    def with_overrides(self, **kwargs: Any) -> "QueryScaleOptions":
        """A copy of the options with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """The options' dictionary encoding (inverse of :meth:`from_dict`)."""
        return {"dedup": self.dedup, "compact_weights": self.compact_weights}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryScaleOptions":
        """Rebuild options from :meth:`to_dict` output.

        Unknown keys are rejected (one misspelled knob in a persisted
        spec must not silently disable dedup).  The two hibernation keys
        of older specs are dropped when they hold a non-negative int.

        Raises
        ------
        ConfigurationError
            On unknown keys or invalid field values.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"queryscale options must decode from a mapping, got {type(data).__name__}"
            )
        known = {"dedup", "compact_weights"}
        unknown = sorted(set(data) - known - set(_LEGACY_KEYS))
        if unknown:
            raise ConfigurationError(
                f"unknown queryscale option(s) {unknown}; known: {sorted(known)}"
            )
        for key in _LEGACY_KEYS:
            value = data.get(key, 0)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ConfigurationError(
                    f"legacy queryscale option {key!r} must be a non-negative int, "
                    f"got {value!r}"
                )
        options = cls(
            dedup=data.get("dedup", True),
            compact_weights=data.get("compact_weights", True),
        )
        options.validate()
        return options
