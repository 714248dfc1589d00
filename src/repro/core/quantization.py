"""Symmetric integer quantization used by the FTA pipeline.

The paper quantizes weights and activations to INT8 (8b/8b) before applying
the FTA approximation.  This module provides the minimal, well-tested
quantization toolbox the reproduction needs:

* symmetric per-tensor and per-channel INT8 weight quantization,
* unsigned INT8 activation quantization (post-ReLU activations are
  non-negative, matching the bit-serial input path of the macro),
* fake-quantization helpers used by the FTA-aware QAT training loop, and
* an FTA-aware weight quantizer that composes quantization with the
  approximation so the ``float -> INT8 -> FTA -> float`` path is one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .fta import FTAConfig, approximate_layer

__all__ = [
    "QuantizationParams",
    "quantize_weights",
    "dequantize",
    "quantize_activations",
    "fake_quantize_weights",
    "fake_quantize_activations",
    "fta_quantize_weights",
]


@dataclass(frozen=True)
class QuantizationParams:
    """Scale(s) and integer range of a quantized tensor.

    Attributes:
        scale: scalar or per-channel array of positive scales such that
            ``float ≈ int * scale``.
        low: inclusive lower bound of the integer grid.
        high: inclusive upper bound of the integer grid.
        channel_axis: axis the per-channel scales are aligned with, or None
            for per-tensor quantization.
    """

    scale: np.ndarray
    low: int
    high: int
    channel_axis: Optional[int] = None

    @property
    def num_bits(self) -> int:
        """Effective bit width of the integer grid."""
        span = self.high - self.low + 1
        return int(np.ceil(np.log2(span)))


def _broadcast_scale(
    scale: np.ndarray, shape: Tuple[int, ...], channel_axis: Optional[int]
) -> np.ndarray:
    """Reshape a per-channel scale vector so it broadcasts over ``shape``."""
    scale = np.asarray(scale, dtype=np.float64)
    if channel_axis is None or scale.ndim == 0:
        return scale
    broadcast_shape = [1] * len(shape)
    broadcast_shape[channel_axis] = shape[channel_axis]
    return scale.reshape(broadcast_shape)


def quantize_weights(
    weights: np.ndarray,
    num_bits: int = 8,
    per_channel: bool = True,
    channel_axis: int = 0,
) -> Tuple[np.ndarray, QuantizationParams]:
    """Symmetric signed quantization of a float weight tensor.

    Args:
        weights: float array of any shape.
        num_bits: bit width (8 for the paper's INT8 configuration).
        per_channel: when True a separate scale is derived per output channel
            (axis ``channel_axis``), which is the standard choice for conv
            and linear weights.
        channel_axis: axis of the output channels.

    Returns:
        ``(int_weights, params)`` where ``int_weights`` is ``int64`` in
        ``[-2^(b-1)+1, 2^(b-1)-1]`` (the symmetric grid excludes the most
        negative code so that ``-x`` is always representable).
    """
    weights = np.asarray(weights, dtype=np.float64)
    high = (1 << (num_bits - 1)) - 1
    low = -high
    if per_channel and weights.ndim > 1:
        reduce_axes = tuple(i for i in range(weights.ndim) if i != channel_axis)
        max_abs = np.abs(weights).max(axis=reduce_axes)
    else:
        max_abs = np.abs(weights).max()
        channel_axis = None
        per_channel = False
    max_abs = np.maximum(max_abs, 1e-12)
    scale = np.asarray(max_abs, dtype=np.float64) / high
    broadcast = _broadcast_scale(scale, weights.shape, channel_axis)
    quotient = weights / broadcast
    np.round(quotient, out=quotient)
    np.clip(quotient, low, high, out=quotient)
    quantized = quotient.astype(np.int64)
    params = QuantizationParams(
        scale=np.asarray(scale, dtype=np.float64),
        low=low,
        high=high,
        channel_axis=channel_axis,
    )
    return quantized, params


def dequantize(values: np.ndarray, params: QuantizationParams) -> np.ndarray:
    """Map integer codes back to float using the stored scale(s)."""
    values = np.asarray(values, dtype=np.float64)
    broadcast = _broadcast_scale(params.scale, values.shape, params.channel_axis)
    return values * broadcast


def quantize_activations(
    activations: np.ndarray, num_bits: int = 8, signed: bool = False
) -> Tuple[np.ndarray, QuantizationParams]:
    """Quantize an activation tensor with a single per-tensor scale.

    Post-ReLU activations are non-negative, so by default an unsigned grid
    ``[0, 2^b - 1]`` is used, matching the unsigned bit-serial input stream
    the IPU feeds to the macro.
    """
    activations = np.asarray(activations, dtype=np.float64)
    if signed:
        high = (1 << (num_bits - 1)) - 1
        low = -high
        max_abs = max(float(np.abs(activations).max()), 1e-12)
        scale = max_abs / high
    else:
        high = (1 << num_bits) - 1
        low = 0
        max_value = max(float(activations.max()), 1e-12)
        scale = max_value / high
    quantized = np.clip(np.round(activations / scale), low, high).astype(np.int64)
    params = QuantizationParams(
        scale=np.asarray(scale, dtype=np.float64), low=low, high=high
    )
    return quantized, params


def fake_quantize_weights(
    weights: np.ndarray,
    num_bits: int = 8,
    per_channel: bool = True,
    channel_axis: int = 0,
) -> np.ndarray:
    """Quantize-then-dequantize weights (straight-through forward pass)."""
    quantized, params = quantize_weights(weights, num_bits, per_channel, channel_axis)
    return dequantize(quantized, params)


def fake_quantize_activations(
    activations: np.ndarray, num_bits: int = 8, signed: bool = False
) -> np.ndarray:
    """Quantize-then-dequantize activations (straight-through forward pass)."""
    quantized, params = quantize_activations(activations, num_bits, signed)
    return dequantize(quantized, params)


def fta_quantize_weights(
    weights: np.ndarray,
    num_bits: int = 8,
    per_channel: bool = True,
    channel_axis: int = 0,
    fta_config: Optional[FTAConfig] = None,
) -> Tuple[np.ndarray, np.ndarray, QuantizationParams, np.ndarray]:
    """Quantize a filter-major weight tensor and apply the FTA approximation.

    Args:
        weights: float weights with output channels along ``channel_axis``
            (axis 0 by convention).
        num_bits: quantization bit width.
        per_channel: per-channel weight scales.
        channel_axis: output-channel axis (treated as the filter axis for
            FTA grouping).
        fta_config: FTA configuration.

    Returns:
        ``(int_weights, fta_int_weights, params, thresholds)`` -- the plain
        quantized integers, the FTA-approximated integers (same shape), the
        quantization parameters, and the per-filter thresholds.
    """
    if channel_axis != 0:
        weights = np.moveaxis(np.asarray(weights), channel_axis, 0)
        channel_axis = 0
    quantized, params = quantize_weights(
        weights, num_bits, per_channel, channel_axis
    )
    filter_major = quantized.reshape(quantized.shape[0], -1)
    fta_result = approximate_layer(filter_major, fta_config)
    approximated = fta_result.approximated.reshape(quantized.shape)
    return quantized, approximated, params, fta_result.thresholds
