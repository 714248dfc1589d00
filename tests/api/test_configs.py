"""Tests for the config registry, presets and builder helpers."""

import dataclasses

import pytest

import repro.api.configs as configs_module
from repro.api.configs import (
    DEFAULT_CONFIG,
    build_dbpim_config,
    build_fta_config,
    config_digest,
    config_name,
    config_to_dict,
    get_config,
    list_configs,
    register_config,
)
from repro.arch.config import DBPIMConfig


class TestRegistry:
    def test_default_preset_is_paper_config(self):
        assert get_config() == DBPIMConfig()
        assert get_config(None) == get_config(DEFAULT_CONFIG)

    def test_builtin_presets_registered(self):
        names = list_configs()
        for expected in (
            "paper-28nm",
            "dense-baseline",
            "weight-sparsity-only",
            "input-sparsity-only",
        ):
            assert expected in names

    def test_instance_passthrough(self):
        config = DBPIMConfig(num_macros=2)
        assert get_config(config) is config

    def test_unknown_preset_raises_with_available_names(self):
        with pytest.raises(KeyError, match="paper-28nm"):
            get_config("no-such-preset")

    def test_register_rejects_duplicates_and_non_configs(self):
        with pytest.raises(ValueError, match="already registered"):
            register_config("paper-28nm", DBPIMConfig())
        with pytest.raises(TypeError):
            register_config("bogus", object())

    def test_preset_immutability(self):
        preset = get_config("paper-28nm")
        with pytest.raises(dataclasses.FrozenInstanceError):
            preset.num_macros = 8
        with pytest.raises(dataclasses.FrozenInstanceError):
            preset.macro.rows = 128

    def test_dense_baseline_preset_disables_sparsity(self):
        dense = get_config("dense-baseline")
        assert not dense.weight_sparsity and not dense.input_sparsity

    def test_config_name_roundtrip_and_custom_tag(self):
        assert config_name("dense-baseline") == "dense-baseline"
        # An equal instance resolves back to the preset name.
        assert config_name(DBPIMConfig()) == "paper-28nm"
        custom = DBPIMConfig(num_macros=3)
        assert config_name(custom).startswith("custom-")


class TestDigest:
    def test_digest_is_stable_and_content_sensitive(self):
        assert config_digest() == config_digest(DBPIMConfig())
        assert config_digest(DBPIMConfig(num_macros=8)) != config_digest()
        fta = build_fta_config(max_threshold=1)
        assert config_digest(fta_config=fta) != config_digest()

    def test_memo_follows_the_registered_config_not_its_name(self, monkeypatch):
        # A private copy of the registry keeps the test preset out of
        # every other test.
        monkeypatch.setattr(
            configs_module, "_REGISTRY", dict(configs_module._REGISTRY)
        )
        name = "test-digest-overwrite"
        first = build_dbpim_config(num_macros=2)
        second = build_dbpim_config(num_macros=6)
        register_config(name, first, overwrite=True)
        assert config_digest(name) == config_digest(first)
        register_config(name, second, overwrite=True)
        assert config_digest(name) == config_digest(second)
        assert config_digest(name) != config_digest(first)

    def test_memo_does_not_alias_equal_values_that_serialise_apart(self):
        # 500 == 500.0, but the digest hashes the JSON form, which differs;
        # memoisation must not make one digest depend on call order.
        as_int = build_dbpim_config(frequency_mhz=500)
        as_float = build_dbpim_config(frequency_mhz=500.0)
        assert as_int == as_float
        assert config_digest(as_int) != config_digest(as_float)
        assert config_digest(as_float) == config_digest()
        assert config_digest(as_int) != config_digest()

    def test_dict_form_is_nested_and_plain(self):
        payload = config_to_dict()
        assert payload["num_macros"] == 4
        assert payload["macro"]["rows"] == 64
        assert payload["buffers"]["feature_buffer"] == 128 * 1024


class TestBuilders:
    def test_build_dbpim_config_flat_knobs(self):
        config = build_dbpim_config(num_macros=8, input_group=32, frequency_mhz=400.0)
        assert config.num_macros == 8
        assert config.macro.input_group == 32
        assert config.clock.frequency_mhz == 400.0

    def test_build_dbpim_config_validates_geometry(self):
        with pytest.raises(ValueError):
            build_dbpim_config(columns=10, weight_bits=8)
        with pytest.raises(ValueError):
            build_dbpim_config(num_macros=0)

    def test_build_fta_config_validates(self):
        assert build_fta_config(max_threshold=1).max_threshold == 1
        with pytest.raises(ValueError):
            build_fta_config(max_threshold=-1)
