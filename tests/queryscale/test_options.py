"""Configuration tests for :class:`repro.queryscale.QueryScaleOptions`.

The option block must round-trip through its dictionary encoding (it is
persisted inside durable EngineSpec manifests), reject unknown keys
loudly, and validate its fields -- a typo in a stored spec must never
silently run a service without dedup.  The keys of the removed cold-query
hibernation still decode from a spec persisted while it existed, and are
dropped.
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.queryscale import QueryScaleOptions
from repro.service import EngineSpec, WindowSpec, spec_from_name


class TestValidation:
    def test_defaults_validate(self):
        QueryScaleOptions().validate()

    @pytest.mark.parametrize("field", ["dedup", "compact_weights"])
    def test_rejects_non_bool_flags(self, field):
        with pytest.raises(ConfigurationError):
            QueryScaleOptions(**{field: 1}).validate()


class TestEncoding:
    @pytest.mark.parametrize(
        "options",
        [
            QueryScaleOptions(),
            QueryScaleOptions(dedup=False, compact_weights=False),
        ],
    )
    def test_round_trip(self, options):
        assert QueryScaleOptions.from_dict(options.to_dict()) == options

    def test_legacy_hibernation_keys_load_and_are_dropped(self):
        legacy = {"dedup": True, "compact_weights": False, "hibernate_after": 512, "max_resident": 0}
        options = QueryScaleOptions.from_dict(legacy)
        assert options == QueryScaleOptions(dedup=True, compact_weights=False)
        assert options.to_dict() == {"dedup": True, "compact_weights": False}

    @pytest.mark.parametrize("key", ["hibernate_after", "max_resident"])
    @pytest.mark.parametrize("value", [-2, True, "4"])
    def test_legacy_key_with_a_value_never_accepted_is_refused(self, key, value):
        with pytest.raises(ConfigurationError):
            QueryScaleOptions.from_dict({"dedup": True, key: value})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError) as excinfo:
            QueryScaleOptions.from_dict({"dedup": True, "hibernate_afterr": 4})
        assert "hibernate_afterr" in str(excinfo.value)

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ConfigurationError):
            QueryScaleOptions.from_dict([("dedup", True)])

    def test_from_dict_validates_decoded_values(self):
        with pytest.raises(ConfigurationError):
            QueryScaleOptions.from_dict({"dedup": "yes"})

    def test_with_overrides(self):
        base = QueryScaleOptions()
        tuned = base.with_overrides(compact_weights=False)
        assert not tuned.compact_weights
        assert tuned.dedup == base.dedup
        assert base.compact_weights


class TestSpecIntegration:
    @pytest.mark.parametrize("name", ["ita", "sharded-ita-2", "sharded-proc-2"])
    def test_spec_round_trips_the_queryscale_block(self, name):
        spec = spec_from_name(name, window=WindowSpec.count(32)).with_overrides(
            queryscale=QueryScaleOptions(dedup=True, compact_weights=False)
        )
        spec.validate()
        decoded = EngineSpec.from_dict(spec.to_dict())
        assert decoded.queryscale == spec.queryscale

    def test_spec_without_queryscale_omits_the_block(self):
        spec = spec_from_name("ita", window=WindowSpec.count(32))
        assert spec.queryscale is None
        assert "queryscale" not in spec.to_dict()

    def test_spec_rejects_invalid_queryscale_block(self):
        spec = spec_from_name("ita", window=WindowSpec.count(32)).with_overrides(
            queryscale=QueryScaleOptions(dedup=1)
        )
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_spec_decode_drops_legacy_queryscale_keys(self):
        spec = spec_from_name("ita", window=WindowSpec.count(32)).with_overrides(
            queryscale=QueryScaleOptions()
        )
        data = spec.to_dict()
        data["queryscale"] = {"dedup": True, "compact_weights": True, "hibernate_after": 2, "max_resident": 0}
        assert EngineSpec.from_dict(data) == spec

    def test_spec_decode_rejects_misspelled_queryscale_key(self):
        spec = spec_from_name("ita", window=WindowSpec.count(32)).with_overrides(
            queryscale=QueryScaleOptions()
        )
        data = spec.to_dict()
        data["queryscale"] = {"dedupe": True}
        with pytest.raises(ConfigurationError):
            EngineSpec.from_dict(data)
