"""Config-fused grid kernel: pinned bitwise-equal to the per-job path.

:func:`repro.sim.vectorized.simulate_grid` evaluates ONE flattened profile
against a whole configuration grid in a single (config, layer) broadcast
pass.  Its entire contract is *bitwise* equality with the legacy per-job
path (``simulate_jobs(..., fuse=False)``, which replicates the profile once
per configuration): every cycle count, activity counter and energy
component, for every registered preset, every Fig. 7 variant, every stock
workload and a seeded fuzz corpus.  Exact ``==`` comparisons, no
tolerances.  Also pinned here: the identity-memoised
:func:`~repro.sim.vectorized.config_knobs` extraction.
"""

import dataclasses

import numpy as np
import pytest

from repro.api.configs import get_config, list_configs
from repro.arch.energy import EnergyModel
from repro.sim.cycle_model import SPARSITY_VARIANTS, CycleModel
from repro.sim.vectorized import (
    CONFIG_KNOBS_CACHE_SIZE,
    config_knobs,
    profile_arrays,
    simulate_grid,
    simulate_jobs,
)
from repro.workloads import get_workload, list_workloads, profile_model
from repro.workloads.fuzz import fuzz_workload

FUZZ_SMOKE_SEEDS = tuple(range(8))


@pytest.fixture(scope="module")
def profiles():
    return {
        name: profile_model(get_workload(name), seed=0)
        for name in list_workloads()
    }


@pytest.fixture(scope="module")
def energy_model():
    return EnergyModel()


def preset_variant_grid():
    """Every registered preset under every Fig. 7 variant, in grid order."""
    return [
        get_config(preset).for_variant(variant)
        for preset in list_configs()
        for variant in SPARSITY_VARIANTS
    ]


def assert_activity_bitwise_equal(fused, reference):
    """Exact equality of two BatchActivity results, field by field."""
    assert np.array_equal(fused.cycles, reference.cycles)
    assert np.array_equal(fused.cell_activations, reference.cell_activations)
    assert np.array_equal(
        fused.effective_cell_activations,
        reference.effective_cell_activations,
    )
    assert np.array_equal(fused.macs, reference.macs)
    assert set(fused.energy) == set(reference.energy)
    for component, values in fused.energy.items():
        assert np.array_equal(values, reference.energy[component]), component


class TestGridBitwiseEquality:
    @pytest.mark.parametrize("workload", sorted(list_workloads()))
    def test_grid_matches_per_job_on_full_preset_grid(
        self, profiles, energy_model, workload
    ):
        arrays = profile_arrays(profiles[workload])
        configs = preset_variant_grid()
        fused = simulate_grid(arrays, configs, energy_model)
        reference = simulate_jobs(
            [arrays] * len(configs), configs, energy_model, fuse=False
        )
        assert len(fused.cycles) == len(configs) * len(arrays)
        assert_activity_bitwise_equal(fused, reference)

    def test_single_config_grid_matches(self, profiles, energy_model):
        arrays = profile_arrays(profiles["alexnet"])
        configs = [get_config("paper-28nm")]
        fused = simulate_grid(arrays, configs, energy_model)
        reference = simulate_jobs([arrays], configs, energy_model, fuse=False)
        assert_activity_bitwise_equal(fused, reference)

    def test_empty_config_grid_rejected(self, profiles, energy_model):
        arrays = profile_arrays(profiles["alexnet"])
        with pytest.raises(ValueError):
            simulate_grid(arrays, [], energy_model)

    def test_fused_jobs_match_unfused_across_mixed_segments(
        self, profiles, energy_model
    ):
        # A job list interleaving two profiles: the fused path partitions
        # it into identity segments (one grid pass each) and concatenates;
        # the result must be byte-identical to the flat unfused pass.
        first = profile_arrays(profiles["alexnet"])
        second = profile_arrays(profiles["mobilenetv2"])
        configs = preset_variant_grid()[:6]
        job_arrays = (
            [first] * len(configs) + [second] * len(configs) + [first]
        )
        job_configs = configs + configs + [configs[0]]
        fused = simulate_jobs(job_arrays, job_configs, energy_model)
        reference = simulate_jobs(
            job_arrays, job_configs, energy_model, fuse=False
        )
        assert_activity_bitwise_equal(fused, reference)

    def test_grid_matches_scalar_reference_through_cycle_model(self):
        # Belt and braces: the fused path end to end (run_batch with an
        # explicit cross-config grid) against the scalar ground truth.
        profile = profile_model(get_workload("alexnet"), seed=0)
        base = get_config("paper-28nm")
        configs = [
            base.for_variant(variant) for variant in SPARSITY_VARIANTS
        ]
        jobs = [(profile, variant) for variant in SPARSITY_VARIANTS]
        fused = CycleModel(base).run_batch(jobs, configs=configs)
        scalar = CycleModel(base, engine="scalar").run_batch(jobs)
        for fused_run, scalar_run in zip(fused, scalar):
            assert fused_run == scalar_run


class TestFuzzSmoke:
    @pytest.mark.parametrize("seed", FUZZ_SMOKE_SEEDS)
    def test_fuzzed_workloads_bitwise(self, seed, energy_model):
        workload = fuzz_workload(seed)
        profile = profile_model(workload, seed=seed)
        arrays = profile_arrays(profile)
        configs = [
            get_config(preset).for_variant(variant)
            for preset in ("paper-28nm", "dense-baseline")
            for variant in SPARSITY_VARIANTS
        ]
        fused = simulate_grid(arrays, configs, energy_model)
        reference = simulate_jobs(
            [arrays] * len(configs), configs, energy_model, fuse=False
        )
        assert_activity_bitwise_equal(fused, reference)


class TestConfigKnobs:
    def test_values_match_attribute_extraction(self):
        config = get_config("paper-28nm")
        knobs = config_knobs(config)
        assert knobs == (
            int(config.macro.rows),
            int(config.macro.columns),
            int(config.macro.input_bits),
            int(config.macro.weight_bits),
            int(config.num_macros),
            bool(config.weight_sparsity),
            bool(config.input_sparsity),
        )

    def test_memoised_per_live_object(self):
        config = get_config("paper-28nm")
        assert config_knobs(config) is config_knobs(config)

    def test_equal_but_distinct_objects_get_their_own_entry(self):
        config = get_config("paper-28nm")
        clone = dataclasses.replace(config)
        assert clone is not config
        assert config_knobs(clone) == config_knobs(config)
        # Both stay served by identity after the second insert.
        assert config_knobs(config) is config_knobs(config)
        assert config_knobs(clone) is config_knobs(clone)

    def test_correct_beyond_cache_capacity(self):
        base = get_config("paper-28nm")
        clones = [
            dataclasses.replace(base, num_macros=1 + (i % 7))
            for i in range(CONFIG_KNOBS_CACHE_SIZE + 8)
        ]
        for clone in clones:
            assert config_knobs(clone)[4] == clone.num_macros

