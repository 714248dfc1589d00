"""Config-grid batch kernel: pinned bitwise-equal to the scalar reference.

:func:`repro.sim.vectorized.simulate_grid` evaluates ONE flattened profile
against a whole configuration grid in a single (config, layer) broadcast
pass, and :func:`~repro.sim.vectorized.simulate_jobs` splits a job list into
same-profile segments for it.  Their entire contract is *bitwise* equality
with the scalar reference (``CycleModel(config, engine="scalar")``), layer
by layer: every cycle count, activity counter, MAC count and energy
component, for every registered preset, every Fig. 7 variant, every stock
workload and a seeded fuzz corpus.  Exact ``==`` comparisons, no
tolerances.  Also pinned here: the :func:`~repro.sim.vectorized.config_knobs`
extraction.
"""

import dataclasses

import pytest

import repro.sim

from repro.api.configs import get_config, list_configs
from repro.arch.energy import EnergyModel
from repro.sim.cycle_model import SPARSITY_VARIANTS, CycleModel
from repro.sim.vectorized import (
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


def preset_variant_pairs(presets=None):
    """Every ``(preset, variant)`` pair, in grid order."""
    return [
        (preset, variant)
        for preset in (presets or list_configs())
        for variant in SPARSITY_VARIANTS
    ]


def resolved_configs(pairs):
    """The variant-resolved configuration of each ``(preset, variant)``."""
    return [get_config(preset).for_variant(variant) for preset, variant in pairs]


def assert_matches_scalar(activity, offset, profile, preset, variant):
    """Rows ``offset:offset + layers`` of a batch equal the scalar run."""
    reference = CycleModel(get_config(preset), engine="scalar").run_model(
        profile, variant
    )
    for index, expected in enumerate(reference.layers, start=offset):
        assert activity.cycles[index] == expected.cycles
        assert activity.cell_activations[index] == expected.cell_activations
        assert (
            activity.effective_cell_activations[index]
            == expected.effective_cell_activations
        )
        assert activity.macs[index] == expected.macs
        energy = expected.energy.as_dict()
        assert set(activity.energy) == set(energy)
        for component, value in energy.items():
            assert activity.energy[component][index] == value, component


def assert_grid_matches_scalar(activity, profile, pairs):
    """A config-major grid result equals the scalar run of every pair."""
    num_layers = len(profile.layers)
    assert len(activity) == len(pairs) * num_layers
    for position, (preset, variant) in enumerate(pairs):
        assert_matches_scalar(
            activity, position * num_layers, profile, preset, variant
        )


class TestGridMatchesScalar:
    @pytest.mark.parametrize("workload", sorted(list_workloads()))
    def test_full_preset_grid(self, profiles, energy_model, workload):
        profile = profiles[workload]
        pairs = preset_variant_pairs()
        activity = simulate_grid(
            profile_arrays(profile), resolved_configs(pairs), energy_model
        )
        assert_grid_matches_scalar(activity, profile, pairs)

    def test_single_config_grid(self, profiles, energy_model):
        profile = profiles["alexnet"]
        activity = simulate_grid(
            profile_arrays(profile), [get_config("paper-28nm")], energy_model
        )
        assert_grid_matches_scalar(
            activity, profile, [("paper-28nm", "hybrid")]
        )

    def test_empty_config_grid_rejected(self, profiles, energy_model):
        arrays = profile_arrays(profiles["alexnet"])
        with pytest.raises(ValueError):
            simulate_grid(arrays, [], energy_model)

    def test_empty_job_list_rejected(self, energy_model):
        with pytest.raises(ValueError, match="at least one job"):
            simulate_jobs([], [], energy_model)

    def test_job_list_length_mismatch_rejected(self, profiles, energy_model):
        arrays = profile_arrays(profiles["alexnet"])
        configs = [get_config("paper-28nm"), get_config("dense-baseline")]
        with pytest.raises(ValueError, match="1 job arrays but 2 configs"):
            simulate_jobs([arrays], configs, energy_model)

    def test_jobs_take_no_fuse_option(self, profiles, energy_model):
        arrays = profile_arrays(profiles["alexnet"])
        with pytest.raises(TypeError):
            simulate_jobs(
                [arrays], [get_config("paper-28nm")], energy_model, fuse=False
            )

    def test_package_exports_the_one_batch_kernel(self):
        assert repro.sim.simulate_grid is simulate_grid
        assert repro.sim.simulate_jobs is simulate_jobs
        assert {"simulate_grid", "simulate_jobs"} <= set(repro.sim.__all__)
        for retired in ("simulate_layers", "invalidate_profile_arrays"):
            assert retired not in repro.sim.__all__
            assert not hasattr(repro.sim, retired)

    def test_jobs_across_mixed_segments(self, profiles, energy_model):
        # A job list interleaving two profiles: simulate_jobs partitions it
        # into identity segments (one grid pass each) and concatenates;
        # every job's slice must equal its own scalar run.
        first = profiles["alexnet"]
        second = profiles["mobilenetv2"]
        pairs = preset_variant_pairs()[:6]
        job_profiles = [first] * len(pairs) + [second] * len(pairs) + [first]
        job_pairs = pairs + pairs + [pairs[0]]
        activity = simulate_jobs(
            [profile_arrays(profile) for profile in job_profiles],
            resolved_configs(job_pairs),
            energy_model,
        )
        offset = 0
        for profile, (preset, variant) in zip(job_profiles, job_pairs):
            assert_matches_scalar(activity, offset, profile, preset, variant)
            offset += len(profile.layers)
        assert len(activity) == offset

    def test_grid_matches_scalar_reference_through_cycle_model(self):
        # Belt and braces: the grid path end to end (run_batch with an
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
        profile = profile_model(fuzz_workload(seed), seed=seed)
        pairs = preset_variant_pairs(("paper-28nm", "dense-baseline"))
        activity = simulate_grid(
            profile_arrays(profile), resolved_configs(pairs), energy_model
        )
        assert_grid_matches_scalar(activity, profile, pairs)


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

    @pytest.mark.parametrize("preset", list_configs())
    def test_values_of_every_variant_resolved_preset(self, preset):
        for variant in SPARSITY_VARIANTS:
            config = get_config(preset).for_variant(variant)
            assert config_knobs(config) == (
                config.macro.rows,
                config.macro.columns,
                config.macro.input_bits,
                config.macro.weight_bits,
                config.num_macros,
                config.weight_sparsity,
                config.input_sparsity,
            )

    def test_equal_but_distinct_configs_give_equal_values(self):
        config = get_config("paper-28nm")
        clone = dataclasses.replace(config)
        assert clone is not config
        assert config_knobs(clone) == config_knobs(config)

    def test_every_replaced_config_reads_its_own_fields(self):
        # No memo: each replaced config yields its own knob values.
        base = get_config("paper-28nm")
        for num_macros in range(1, 9):
            clone = dataclasses.replace(base, num_macros=num_macros)
            assert config_knobs(clone)[4] == num_macros
        assert config_knobs(base)[4] == base.num_macros
