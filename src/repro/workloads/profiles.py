"""Synthetic sparsity profiles of the full-size workloads.

The cycle-level performance model needs, per layer, (a) the distribution of
FTA thresholds over the layer's filters and (b) the average number of
non-zero input bit columns per IPU group.  The paper measures both on real
pre-trained CIFAR-100 checkpoints; those are unavailable offline, so this
module synthesises statistically representative weights and activations:

* **Weights** are drawn from a two-component Gaussian mixture whose mixing
  weight is the model's ``redundancy``: a redundant model has most of its
  weights in a tight near-zero component plus a small fraction of large
  outliers that set the per-filter quantization scale -- exactly the shape
  that makes per-channel INT8 codes concentrate on tiny values and drives
  the FTA thresholds toward 1.  Compact models use a broad single component,
  pushing thresholds toward 2.
* **Activations** are ReLU-censored Gaussians whose non-zero fraction is the
  model's ``activation_density``, quantized to unsigned INT8.

The profiles are deterministic given the seed.  FTA is evaluated exactly on
each layer's per-filter histogram of INT8 codes
(:func:`~repro.core.fta.layer_statistics`: the same thresholds and digit
totals as snapping every weight, without the per-weight arrays) and the IPU
code runs on the synthetic activations, so the downstream speedup/energy
model exercises the real algorithm end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import zlib

import numpy as np

from ..arch.ipu import InputPreprocessingUnit
from ..core.fta import FTAConfig, layer_statistics
from ..core.quantization import quantize_weights
from .layers import LayerShape
from .models import ModelWorkload

# Unused here, but perfbench/tracer.py probes these names in this module.
from ..core.csd import count_nonzero_digits_array  # noqa: F401
from ..core.fta import approximate_layer  # noqa: F401
from ..core.sparsity import weight_zero_bit_ratio_binary  # noqa: F401

__all__ = [
    "LayerSparsityProfile",
    "ModelSparsityProfile",
    "synthesize_layer_weights",
    "synthesize_activations",
    "profile_layer",
    "profile_model",
]

#: Cap on the number of filters / elements sampled per layer so profiling a
#: full network stays fast; the threshold statistics converge well below it.
MAX_SAMPLED_FILTERS = 64
MAX_SAMPLED_ELEMENTS = 1024
MAX_SAMPLED_ACTIVATIONS = 4096


@dataclass(frozen=True)
class LayerSparsityProfile:
    """Sparsity statistics of one layer.

    Attributes:
        layer: the layer descriptor.
        thresholds: per-filter FTA thresholds for the whole layer (expanded
            from the sampled filters so the mapper sees ``out_channels``
            entries).
        input_active_columns: average non-zero bit columns per IPU group of
            the layer's input activations.
        weight_zero_bit_ratio: zero-digit ratio of the FTA'd sampled weights.
        weight_zero_bit_ratio_binary: zero-bit ratio of the plain (non-FTA)
            INT8 weights in two's complement -- what the dense baseline's
            utilisation is limited by.
        storage_utilization: fraction of allocated block slots holding a
            real Comp. Pattern block.
    """

    layer: LayerShape
    thresholds: Tuple[int, ...]
    input_active_columns: float
    weight_zero_bit_ratio: float
    weight_zero_bit_ratio_binary: float
    storage_utilization: float


@dataclass(frozen=True)
class ModelSparsityProfile:
    """Per-layer sparsity profiles of one workload."""

    workload: ModelWorkload
    layers: Tuple[LayerSparsityProfile, ...]

    def __len__(self) -> int:
        """Number of profiled layers."""
        return len(self.layers)

    def __iter__(self):
        """Iterate the per-layer profiles in network order."""
        return iter(self.layers)

    def layer(self, name: str) -> LayerSparsityProfile:
        """Look one layer's profile up by layer name.

        Raises:
            KeyError: listing the available layer names.
        """
        for profile in self.layers:
            if profile.layer.name == name:
                return profile
        raise KeyError(
            f"unknown layer {name!r} of {self.workload.name!r}; available: "
            f"{[p.layer.name for p in self.layers]}"
        )

    def threshold_histogram(self) -> Dict[int, int]:
        """Histogram of the per-filter FTA thresholds over every layer."""
        histogram: Dict[int, int] = {}
        for profile in self.layers:
            for value in profile.thresholds:
                histogram[value] = histogram.get(value, 0) + 1
        return histogram

    @property
    def average_active_columns(self) -> float:
        """MAC-weighted average of the per-layer input active columns."""
        total_macs = sum(p.layer.macs for p in self.layers)
        return (
            sum(p.input_active_columns * p.layer.macs for p in self.layers) / total_macs
        )

    @property
    def average_storage_utilization(self) -> float:
        """Weight-count-weighted average storage utilisation."""
        total = sum(p.layer.weight_count for p in self.layers)
        return (
            sum(p.storage_utilization * p.layer.weight_count for p in self.layers)
            / total
        )


def synthesize_layer_weights(
    layer: LayerShape,
    redundancy: float,
    seed: int = 0,
    max_filters: int = MAX_SAMPLED_FILTERS,
    max_elements: int = MAX_SAMPLED_ELEMENTS,
) -> np.ndarray:
    """Draw representative float weights for a layer.

    Args:
        layer: the layer whose weights to synthesise.
        redundancy: 0..1; higher values concentrate more weights near zero.
        seed: RNG seed (combined with a hash of the layer name).
        max_filters: cap on sampled filters.
        max_elements: cap on sampled reduction elements per filter.

    Returns:
        Float array ``(sampled_filters, sampled_elements)``.
    """
    if not 0.0 <= redundancy <= 1.0:
        raise ValueError("redundancy must be in [0, 1]")
    rng = np.random.default_rng(seed + (zlib.crc32(layer.name.encode()) % (1 << 16)))
    filters = min(layer.out_channels, max_filters)
    elements = min(layer.reduction_size, max_elements)
    # Near-zero component std shrinks with redundancy; the outlier component
    # is fixed and sets the per-filter scale.
    near_zero_std = 0.02 + 0.12 * (1.0 - redundancy)
    outlier_std = 0.45
    outlier_fraction = 0.03 + 0.12 * (1.0 - redundancy)
    # The draws of ``np.where(is_outlier, normal(0, outlier_std),
    # normal(0, near_zero_std))``, in order: ``normal(0, s)`` is
    # ``0 + s * standard_normal()`` value for value, so scaling the standard
    # draws reproduces it (up to the sign of an exact zero).
    is_outlier = rng.random(size=(filters, elements)) < outlier_fraction
    weights = rng.standard_normal(size=(filters, elements))
    weights *= outlier_std
    near_zero = rng.standard_normal(size=(filters, elements))
    near_zero *= near_zero_std
    np.copyto(weights, near_zero, where=~is_outlier)
    # Guarantee at least one large weight per filter so the quantization
    # scale is set by the outlier component (as in trained networks).
    max_index = rng.integers(0, elements, size=filters)
    weights[np.arange(filters), max_index] = rng.normal(
        0.0, outlier_std, size=filters
    ) + np.sign(rng.normal(size=filters)) * outlier_std
    return weights


def synthesize_activations(
    layer: LayerShape,
    density: float,
    seed: int = 0,
    max_samples: int = MAX_SAMPLED_ACTIVATIONS,
) -> np.ndarray:
    """Draw representative unsigned INT8 activations feeding a layer.

    Post-ReLU activations follow a half-normal-like distribution and the
    INT8 activation scale of a deployed network is calibrated against its
    outliers, so typical codes sit well below 255 and the high bit columns
    of a broadcast group are frequently all zero -- which is what the IPU
    exploits.  The calibration point (8 standard deviations) mirrors common
    percentile-calibration practice.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    rng = np.random.default_rng(seed + (zlib.crc32(layer.name.encode()) % (1 << 16)) + 7)
    count = min(layer.activation_count, max_samples)
    values = rng.standard_normal(size=count)
    np.abs(values, out=values)
    # Censor values so only ``density`` of them are non-zero (post-ReLU).
    threshold = np.quantile(values, 1.0 - density)
    values = np.where(values >= threshold, values - threshold, 0.0)
    calibration = 8.0  # activation-scale calibration point, in std units
    return np.clip(np.round(values / calibration * 255), 0, 255).astype(np.int64)


def profile_layer(
    layer: LayerShape,
    redundancy: float,
    activation_density: float,
    seed: int = 0,
    fta_config: Optional[FTAConfig] = None,
    input_group: int = 16,
) -> LayerSparsityProfile:
    """Run FTA + IPU analysis on synthetic tensors for one layer."""
    float_weights = synthesize_layer_weights(layer, redundancy, seed)
    int_weights, _ = quantize_weights(float_weights, per_channel=True)
    stats = layer_statistics(int_weights, fta_config)
    # Expand the sampled thresholds to the layer's full filter count by
    # cycling through the sample (the statistics are what matters).
    repeats = -(-layer.out_channels // stats.thresholds.size)
    thresholds = tuple(
        np.tile(stats.thresholds, repeats)[: layer.out_channels].tolist()
    )
    total_digits = stats.size * 8
    # Zero-bit ratio of the approximated weights (in CSD digit terms).
    zero_ratio = 1.0 - stats.fta_nonzero / total_digits
    binary_zero_ratio = 1.0 - float(stats.binary_nonzero) / float(total_digits)
    allocated = int(np.maximum(stats.thresholds, 1).sum()) * stats.elements
    utilization = stats.fta_nonzero / allocated if allocated else 0.0

    activations = synthesize_activations(layer, activation_density, seed)
    ipu = InputPreprocessingUnit(group_size=input_group)
    if activations.max() == 0:
        active_columns = 0.0
    else:
        active_columns = ipu.average_active_columns(activations)
    return LayerSparsityProfile(
        layer=layer,
        thresholds=thresholds,
        input_active_columns=active_columns,
        weight_zero_bit_ratio=zero_ratio,
        weight_zero_bit_ratio_binary=binary_zero_ratio,
        storage_utilization=min(utilization, 1.0),
    )


def profile_model(
    workload: ModelWorkload,
    seed: int = 0,
    fta_config: Optional[FTAConfig] = None,
    input_group: int = 16,
) -> ModelSparsityProfile:
    """Profile every layer of a workload."""
    profiles: List[LayerSparsityProfile] = [
        profile_layer(
            layer,
            workload.redundancy,
            workload.activation_density,
            seed=seed,
            fta_config=fta_config,
            input_group=input_group,
        )
        for layer in workload.layers
    ]
    return ModelSparsityProfile(workload=workload, layers=tuple(profiles))
