"""Bit-level sparsity analytics (the statistics behind Fig. 2 of the paper).

Two families of statistics are implemented:

* **Weight bit sparsity** (Fig. 2(a)): the fraction of zero bits in INT8
  weights under three encodings -- plain two's complement binary, CSD, and
  the FTA-approximated CSD ("Ours").  CSD adds roughly 5 percentage points of
  zero bits over binary and FTA adds a further few points.  A layer's three
  totals come from one :func:`~repro.core.fta.layer_statistics` histogram,
  never from a materialised FTA'd weight array.

* **Input-feature block sparsity** (Fig. 2(b)): when input features are
  grouped (group sizes 1, 8 or 16), how often an entire bit *column* of the
  group is zero.  Such all-zero columns are what the IPU skips at run time.
  A group's zero columns are ``width - popcount(OR of the group)``: one OR
  per group and one popcount lookup, never the per-bit planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .csd import (
    DEFAULT_WIDTH,
    count_nonzero_bits_binary,
    count_nonzero_digits_array,
)
from .fta import FTAConfig, FTAStatistics, layer_statistics

__all__ = [
    "WeightSparsityReport",
    "weight_zero_bit_ratio_binary",
    "weight_zero_bit_ratio_csd",
    "weight_zero_bit_ratio_fta",
    "analyze_weight_sparsity",
    "input_zero_bit_ratio",
    "input_block_zero_column_ratio",
    "analyze_input_sparsity",
]


@dataclass(frozen=True)
class WeightSparsityReport:
    """Zero-bit ratios of one layer (or model) under the three encodings.

    Attributes:
        binary: zero-bit ratio of the plain two's complement encoding.
        csd: zero-bit ratio after CSD re-encoding.
        fta: zero-bit ratio after CSD re-encoding *and* FTA approximation.
        num_weights: number of weights analysed.
    """

    binary: float
    csd: float
    fta: float
    num_weights: int

    def as_dict(self) -> Dict[str, float]:
        return {"binary": self.binary, "csd": self.csd, "fta": self.fta}


def _zero_ratio(nonzero: int, size: int, width: int) -> float:
    """Fraction of the ``size * width`` digits that are zero."""
    return 1.0 - float(nonzero) / float(size * width)


def _filter_major_statistics(
    weights: np.ndarray, width: int, fta_config: Optional[FTAConfig]
) -> FTAStatistics:
    """:func:`layer_statistics` of ``weights`` with the filters along axis 0
    (a 1-D array is one filter)."""
    weights = np.asarray(weights, dtype=np.int64)
    if weights.size == 0:
        raise ValueError("cannot analyse an empty weight tensor")
    if weights.ndim == 1:
        weights = weights.reshape(1, -1)
    return layer_statistics(
        weights.reshape(weights.shape[0], -1), fta_config, width
    )


def weight_zero_bit_ratio_binary(
    weights: np.ndarray, width: int = DEFAULT_WIDTH
) -> float:
    """Fraction of zero bits in the two's complement encoding of ``weights``."""
    weights = np.asarray(weights, dtype=np.int64)
    if weights.size == 0:
        raise ValueError("cannot analyse an empty weight tensor")
    nonzero = count_nonzero_bits_binary(weights, width)
    return _zero_ratio(nonzero.sum(), weights.size, width)


def weight_zero_bit_ratio_csd(
    weights: np.ndarray, width: int = DEFAULT_WIDTH
) -> float:
    """Fraction of zero digits in the CSD encoding of ``weights``."""
    weights = np.asarray(weights, dtype=np.int64)
    if weights.size == 0:
        raise ValueError("cannot analyse an empty weight tensor")
    nonzero = count_nonzero_digits_array(weights, width)
    return _zero_ratio(nonzero.sum(), weights.size, width)


def weight_zero_bit_ratio_fta(
    weights: np.ndarray,
    width: int = DEFAULT_WIDTH,
    fta_config: Optional[FTAConfig] = None,
) -> float:
    """Zero-digit ratio after applying FTA to a filter-major weight matrix.

    Args:
        weights: integer weights of shape ``(num_filters, elements)`` or any
            shape whose first axis is the filter axis.
    """
    stats = _filter_major_statistics(weights, width, fta_config)
    return _zero_ratio(stats.fta_nonzero, stats.size, width)


def analyze_weight_sparsity(
    layer_weights: Sequence[np.ndarray],
    width: int = DEFAULT_WIDTH,
    fta_config: Optional[FTAConfig] = None,
) -> WeightSparsityReport:
    """Aggregate the three zero-bit ratios over a list of layers.

    Each entry of ``layer_weights`` must be a filter-major integer array;
    its three totals come from one :func:`layer_statistics` pass.  Ratios
    are weighted by the number of bits in each layer so the aggregate
    matches a whole-model measurement.
    """
    total_bits = 0
    zero_binary = 0.0
    zero_csd = 0.0
    zero_fta = 0.0
    total_weights = 0
    for weights in layer_weights:
        stats = _filter_major_statistics(weights, width, fta_config)
        bits = stats.size * width
        total_bits += bits
        total_weights += stats.size
        zero_binary += _zero_ratio(stats.binary_nonzero, stats.size, width) * bits
        zero_csd += _zero_ratio(stats.csd_nonzero, stats.size, width) * bits
        zero_fta += _zero_ratio(stats.fta_nonzero, stats.size, width) * bits
    if total_bits == 0:
        raise ValueError("no weights provided")
    return WeightSparsityReport(
        binary=zero_binary / total_bits,
        csd=zero_csd / total_bits,
        fta=zero_fta / total_bits,
        num_weights=total_weights,
    )


def input_zero_bit_ratio(
    activations: np.ndarray, width: int = DEFAULT_WIDTH
) -> float:
    """Fraction of zero bits in an unsigned activation tensor."""
    activations = np.asarray(activations, dtype=np.int64)
    if activations.size == 0:
        raise ValueError("cannot analyse an empty activation tensor")
    if activations.min() < 0:
        raise ValueError("activation bit analysis expects unsigned values")
    nonzero = int(count_nonzero_bits_binary(activations, width).sum())
    return 1.0 - float(nonzero) / float(activations.size * width)


def input_block_zero_column_ratio(
    activations: np.ndarray, group_size: int, width: int = DEFAULT_WIDTH
) -> float:
    """Probability that a whole bit column of an input group is zero.

    The IPU broadcasts inputs to the macro in groups (16 inputs per
    compartment column in the paper's configuration) and can skip a bit
    position only when *all* inputs of the group have a zero at that
    position.  This function measures how often that happens.

    Args:
        activations: unsigned integer activations, flattened internally.
        group_size: number of activations sharing one broadcast column.
        width: activation bit width.

    Returns:
        Ratio in ``[0, 1]`` of (group, bit-position) pairs whose column is
        entirely zero.
    """
    if group_size < 1:
        raise ValueError("group_size must be at least 1")
    activations = np.asarray(activations, dtype=np.int64).reshape(-1)
    if activations.size == 0:
        raise ValueError("cannot analyse an empty activation tensor")
    if activations.min() < 0:
        raise ValueError("activation bit analysis expects unsigned values")
    num_groups = activations.size // group_size
    if num_groups == 0:
        raise ValueError(
            f"need at least {group_size} activations for group_size={group_size}"
        )
    grouped = activations[: num_groups * group_size].reshape(
        num_groups, group_size
    )
    group_or = np.bitwise_or.reduce(grouped, axis=1)
    active = int(count_nonzero_bits_binary(group_or, width).sum())
    total = num_groups * width
    return (total - active) / total


def analyze_input_sparsity(
    activations: np.ndarray,
    group_sizes: Sequence[int] = (1, 8, 16),
    width: int = DEFAULT_WIDTH,
) -> Dict[int, float]:
    """Fig. 2(b): zero-column ratios for several group sizes."""
    return {
        int(size): input_block_zero_column_ratio(activations, int(size), width)
        for size in group_sizes
    }
