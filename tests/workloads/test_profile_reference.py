"""Workload profiles against the element-wise reference pipeline.

:func:`profile_layer` reads FTA from :func:`layer_statistics` and draws its
weights from scaled standard normals.  The reference below is the
per-weight pipeline it replaced: ``np.where`` over two ``rng.normal``
draws, quantisation by ``np.clip(np.round(...))``, :func:`approximate_layer`
for the snapped weights, then per-weight digit and bit counts.  Both must
give byte-identical profiles for every workload, seed, FTA configuration
and IPU group size.
"""

import pickle
import zlib

import numpy as np
import pytest

from repro.arch.ipu import InputPreprocessingUnit
from repro.core.csd import count_nonzero_digits_array
from repro.core.fta import FTAConfig, approximate_layer
from repro.core.sparsity import weight_zero_bit_ratio_binary
from repro.workloads.models import PAPER_MODELS, get_workload, list_workloads
from repro.workloads.profiles import (
    LayerSparsityProfile,
    profile_model,
    synthesize_activations,
    synthesize_layer_weights,
)

SEEDS = (0, 1)
GROUPS = (8, 16)
CONFIGS = (
    FTAConfig(),
    FTAConfig(table_mode="exact"),
    FTAConfig(max_threshold=0),
    FTAConfig(max_threshold=1),
    FTAConfig(max_threshold=3),
    FTAConfig(width=20),
    FTAConfig(value_low=-64, value_high=64),
)


def reference_weights(layer, redundancy, seed):
    """The mixture draw as two full ``rng.normal`` arrays and ``np.where``."""
    rng = np.random.default_rng(seed + (zlib.crc32(layer.name.encode()) % (1 << 16)))
    filters = min(layer.out_channels, 64)
    elements = min(layer.reduction_size, 1024)
    near_zero_std = 0.02 + 0.12 * (1.0 - redundancy)
    outlier_fraction = 0.03 + 0.12 * (1.0 - redundancy)
    is_outlier = rng.random(size=(filters, elements)) < outlier_fraction
    weights = np.where(
        is_outlier,
        rng.normal(0.0, 0.45, size=(filters, elements)),
        rng.normal(0.0, near_zero_std, size=(filters, elements)),
    )
    max_index = rng.integers(0, elements, size=filters)
    weights[np.arange(filters), max_index] = rng.normal(
        0.0, 0.45, size=filters
    ) + np.sign(rng.normal(size=filters)) * 0.45
    return weights


def reference_activations(layer, density, seed):
    rng = np.random.default_rng(
        seed + (zlib.crc32(layer.name.encode()) % (1 << 16)) + 7
    )
    count = min(layer.activation_count, 4096)
    values = np.abs(rng.normal(0.0, 1.0, size=count))
    threshold = np.quantile(values, 1.0 - density)
    values = np.where(values >= threshold, values - threshold, 0.0)
    return np.clip(np.round(values / 8.0 * 255), 0, 255).astype(np.int64)


def reference_quantize(weights):
    scale = np.maximum(np.abs(weights).max(axis=1), 1e-12) / 127
    return np.clip(np.round(weights / scale[:, None]), -127, 127).astype(np.int64)


def reference_layer(layer, int_weights, active_columns, config):
    result = approximate_layer(int_weights, config)
    repeats = -(-layer.out_channels // result.thresholds.size)
    thresholds = tuple(
        int(v) for v in np.tile(result.thresholds, repeats)[: layer.out_channels]
    )
    approx = result.approximated
    nonzero_digits = int(count_nonzero_digits_array(approx).sum())
    allocated = int(np.maximum(result.thresholds, 1).sum()) * approx.shape[1]
    utilization = nonzero_digits / allocated if allocated else 0.0
    return LayerSparsityProfile(
        layer=layer,
        thresholds=thresholds,
        input_active_columns=active_columns,
        weight_zero_bit_ratio=1.0 - nonzero_digits / (approx.size * 8),
        weight_zero_bit_ratio_binary=weight_zero_bit_ratio_binary(int_weights),
        storage_utilization=min(utilization, 1.0),
    )


def reference_profiles(workload, seed):
    """``{(config, group): layer profiles}`` from one draw per layer."""
    rows = {(config, group): [] for config in CONFIGS for group in GROUPS}
    for layer in workload.layers:
        int_weights = reference_quantize(
            reference_weights(layer, workload.redundancy, seed)
        )
        activations = reference_activations(
            layer, workload.activation_density, seed
        )
        for group in GROUPS:
            active = (
                0.0
                if activations.max() == 0
                else InputPreprocessingUnit(group_size=group).average_active_columns(
                    activations
                )
            )
            for config in CONFIGS:
                rows[(config, group)].append(
                    reference_layer(layer, int_weights, active, config)
                )
    return rows


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list_workloads(None))
def test_profiles_equal_the_element_wise_reference(name, seed):
    workload = get_workload(name)
    for (config, group), layers in reference_profiles(workload, seed).items():
        profile = profile_model(
            workload, seed=seed, fta_config=config, input_group=group
        )
        assert pickle.dumps(profile.layers) == pickle.dumps(tuple(layers)), (
            config,
            group,
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_synthesis_draws_equal_the_normal_formula(seed):
    layers = [
        (layer, workload)
        for workload in PAPER_MODELS.values()
        for layer in workload.layers
    ]
    assert len(layers) == 153
    for layer, workload in layers:
        expected = reference_weights(layer, workload.redundancy, seed)
        drawn = synthesize_layer_weights(layer, workload.redundancy, seed)
        assert drawn.tobytes() == expected.tobytes(), layer.name
        expected = reference_activations(layer, workload.activation_density, seed)
        drawn = synthesize_activations(layer, workload.activation_density, seed)
        assert drawn.tobytes() == expected.tobytes(), layer.name
