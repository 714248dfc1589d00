"""Columnar ``ModelPerformance``: totals straight from the batch columns.

A :class:`~repro.sim.cycle_model.ModelPerformance` keeps each per-layer
quantity as one list and builds its ``LayerPerformance`` records only when
``layers`` is read.  These tests pin that the column sums are the per-layer
sums the records give -- bit for bit, in layer order -- on every preset,
workload and Fig. 7 variant, for both engines.
"""

import pytest

from repro.api.configs import get_config, list_configs
from repro.arch.energy import EnergyBreakdown
from repro.sim.cycle_model import (
    ENERGY_COMPONENTS,
    SPARSITY_VARIANTS,
    CycleModel,
    ModelPerformance,
)
from repro.workloads import get_workload, list_workloads, profile_model

PRESETS = tuple(list_configs())


@pytest.fixture(scope="module")
def profiles():
    return [profile_model(get_workload(name), seed=0) for name in list_workloads()]


def _per_layer_totals(performance):
    """The totals as the per-layer records add them up."""
    layers = performance.layers
    combined = EnergyBreakdown()
    for layer in layers:
        combined.merge(layer.energy)
    cells = sum(layer.cell_activations for layer in layers)
    effective = sum(layer.effective_cell_activations for layer in layers)
    return {
        "cycles": sum(layer.cycles for layer in layers),
        "energy": sum(layer.energy.total_pj for layer in layers),
        "macs": sum(layer.macs for layer in layers),
        "utilization": effective / cells if cells else 0.0,
        "breakdown": combined.as_dict(),
    }


def _columnar_totals(performance):
    return {
        "cycles": performance.total_cycles,
        "energy": performance.total_energy_pj,
        "macs": performance.total_macs,
        "utilization": performance.actual_utilization,
        "breakdown": performance.energy_breakdown(),
    }


@pytest.mark.parametrize("preset", PRESETS)
def test_column_totals_equal_per_layer_totals(profiles, preset):
    config = get_config(preset)
    vector = CycleModel(config)
    scalar = CycleModel(config, engine="scalar")
    for profile in profiles:
        # Totals are read first, before any layer record exists.
        columnar = {
            variant: _columnar_totals(performance)
            for variant, performance in vector.run_all_variants(profile).items()
        }
        vector_runs = vector.run_all_variants(profile)
        scalar_runs = scalar.run_all_variants(profile)
        for variant in SPARSITY_VARIANTS:
            assert columnar[variant] == _per_layer_totals(vector_runs[variant])
            assert columnar[variant] == _per_layer_totals(scalar_runs[variant])
            assert vector_runs[variant].layers == scalar_runs[variant].layers
            assert list(columnar[variant]["breakdown"]) == list(ENERGY_COMPONENTS)


def test_layers_are_built_once_and_align_with_the_columns(profiles):
    performance = CycleModel().run_model(profiles[0], "hybrid")
    layers = performance.layers
    assert layers is performance.layers
    assert [layer.layer for layer in layers] == list(performance.shapes)
    assert [layer.cycles for layer in layers] == performance.cycles
    for component in ENERGY_COMPONENTS:
        assert [
            getattr(layer.energy, component) for layer in layers
        ] == performance.energy[component]


def test_from_layers_round_trips(profiles):
    performance = CycleModel().run_model(profiles[0], "base")
    rebuilt = ModelPerformance.from_layers(
        performance.name, performance.variant, performance.layers
    )
    assert rebuilt == performance
    assert rebuilt.total_energy_pj == performance.total_energy_pj


def test_energy_components_follow_the_breakdown_total():
    # total_pj adds the components in field order; the columns follow it.
    assert tuple(EnergyBreakdown().as_dict()) == ENERGY_COMPONENTS
    performance = ModelPerformance.from_layers("x", "hybrid", [])
    assert performance.total_energy_pj == 0
    assert performance.energy_breakdown() == EnergyBreakdown().as_dict()
