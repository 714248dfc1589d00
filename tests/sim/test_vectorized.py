"""Equivalence suite: the vectorized engine is pinned to the scalar engine.

The vectorized NumPy kernel must be *bitwise* identical to the per-layer
scalar reference -- every cycle count, activity counter and energy component
of every layer, for every registered hardware preset, every workload and
every Fig. 7 sparsity variant.  Exact ``==`` comparisons, no tolerances.
"""

import pytest

from repro.api.configs import get_config, list_configs
from repro.sim import ProfileArrays
from repro.sim.cycle_model import DEFAULT_ENGINE, ENGINES, SPARSITY_VARIANTS, CycleModel
from repro.workloads import get_workload, list_workloads, profile_model


@pytest.fixture(scope="module")
def profiles():
    return {name: profile_model(get_workload(name), seed=0) for name in list_workloads()}


def _assert_layer_equal(scalar_layer, vector_layer):
    assert vector_layer.layer == scalar_layer.layer
    assert vector_layer.cycles == scalar_layer.cycles
    assert vector_layer.cell_activations == scalar_layer.cell_activations
    assert (
        vector_layer.effective_cell_activations
        == scalar_layer.effective_cell_activations
    )
    assert vector_layer.macs == scalar_layer.macs
    assert vector_layer.energy.as_dict() == scalar_layer.energy.as_dict()


class TestEngineEquivalence:
    @pytest.mark.parametrize("preset", list_configs())
    def test_bitwise_identical_on_every_preset(self, profiles, preset):
        config = get_config(preset)
        scalar = CycleModel(config, engine="scalar")
        vector = CycleModel(config, engine="vectorized")
        for profile in profiles.values():
            scalar_runs = scalar.run_all_variants(profile)
            vector_runs = vector.run_all_variants(profile)
            for variant in SPARSITY_VARIANTS:
                s, v = scalar_runs[variant], vector_runs[variant]
                assert v.name == s.name and v.variant == s.variant
                assert len(v.layers) == len(s.layers)
                for scalar_layer, vector_layer in zip(s.layers, v.layers):
                    _assert_layer_equal(scalar_layer, vector_layer)
                assert v.total_cycles == s.total_cycles
                assert v.total_energy_pj == s.total_energy_pj
                assert v.actual_utilization == s.actual_utilization

    def test_run_model_matches_run_batch(self, profiles):
        model = CycleModel()
        profile = profiles["alexnet"]
        single = model.run_model(profile, "hybrid")
        (batched,) = model.run_batch([(profile, "hybrid")])
        assert single.total_cycles == batched.total_cycles
        assert single.total_energy_pj == batched.total_energy_pj

    def test_batch_spans_models_variants_and_configs(self, profiles):
        model = CycleModel()
        jobs, configs = [], []
        for name in ("alexnet", "mobilenetv2"):
            for variant in SPARSITY_VARIANTS:
                for preset in ("paper-28nm", "paper-28nm-8macro"):
                    jobs.append((profiles[name], variant))
                    configs.append(get_config(preset))
        batched = model.run_batch(jobs, configs=configs)
        assert len(batched) == len(jobs)
        for (profile, variant), config, result in zip(jobs, configs, batched):
            reference = CycleModel(config, engine="scalar").run_model(
                profile, variant
            )
            assert result.total_cycles == reference.total_cycles
            assert result.total_energy_pj == reference.total_energy_pj

    def test_scalar_batch_fallback_matches(self, profiles):
        scalar = CycleModel(engine="scalar")
        profile = profiles["alexnet"]
        batched = scalar.run_batch([(profile, v) for v in SPARSITY_VARIANTS])
        for variant, result in zip(SPARSITY_VARIANTS, batched):
            reference = scalar.run_model(profile, variant)
            assert result.total_cycles == reference.total_cycles


class TestEngineSelection:
    def test_default_engine_is_vectorized(self):
        assert DEFAULT_ENGINE == "vectorized"
        assert CycleModel().engine == "vectorized"
        assert set(ENGINES) == {"scalar", "vectorized"}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            CycleModel(engine="turbo")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mismatched_configs_length_rejected(self, profiles, engine):
        model = CycleModel(engine=engine)
        with pytest.raises(ValueError, match="configs"):
            model.run_batch(
                [(profiles["alexnet"], "hybrid")], configs=[model.config] * 2
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_batch(self, engine):
        assert CycleModel(engine=engine).run_batch([]) == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unknown_variant_rejected_in_batch(self, profiles, engine):
        with pytest.raises(ValueError, match="unknown variant"):
            CycleModel(engine=engine).run_batch(
                [(profiles["alexnet"], "bogus")]
            )


class TestProfileArrays:
    def test_arrays_align_with_profile(self, profiles):
        profile = profiles["resnet18"]
        arrays = ProfileArrays.from_profile(profile)
        assert len(arrays) == len(profile.layers)
        for index, layer_profile in enumerate(profile.layers):
            assert arrays.layers[index] is layer_profile.layer
            assert arrays.out_channels[index] == layer_profile.layer.out_channels
            assert arrays.threshold_counts[index].sum() == len(
                layer_profile.thresholds
            )

    def test_mismatched_threshold_count_rejected(self, profiles):
        # The scalar mapper raises on profiles whose per-filter threshold
        # list does not match the filter count; the vectorized engine must
        # reject them too rather than silently producing different numbers.
        import dataclasses

        profile = profiles["alexnet"]
        bad_layer = dataclasses.replace(profile.layers[0], thresholds=(1, 2))
        bad_profile = dataclasses.replace(
            profile, layers=(bad_layer,) + profile.layers[1:]
        )
        with pytest.raises(ValueError, match="thresholds"):
            ProfileArrays.from_profile(bad_profile)
        with pytest.raises(ValueError, match="thresholds"):
            CycleModel(engine="scalar").run_model(bad_profile, "hybrid")

    def test_out_of_range_thresholds_rejected(self, profiles):
        import dataclasses

        profile = profiles["alexnet"]
        bad_layer = dataclasses.replace(
            profile.layers[0],
            thresholds=(9,) * profile.layers[0].layer.out_channels,
        )
        bad_profile = dataclasses.replace(
            profile, layers=(bad_layer,) + profile.layers[1:]
        )
        with pytest.raises(ValueError, match="thresholds"):
            ProfileArrays.from_profile(bad_profile)

    def test_arrays_memoised_per_profile_object(self, profiles):
        model = CycleModel()
        profile = profiles["alexnet"]
        first = model._arrays_for(profile)
        assert model._arrays_for(profile) is first
