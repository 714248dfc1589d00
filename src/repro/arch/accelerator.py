"""Functional execution of NN layers on the DB-PIM accelerator.

This module ties the pieces together for *functional verification*: a layer
(matrix multiply / convolution expressed as a matrix multiply) is tiled onto
the PIM macros, executed bit-serially through the dyadic-block path and the
result is compared against a plain integer reference.  It also produces the
activity counters (cycles, cell activations, utilisation, buffer traffic)
that feed the energy model -- the same accounting the faster analytical
cycle model in :mod:`repro.sim` uses for full-size networks.

The dense baseline is the same engine with ``weight_sparsity`` disabled: the
macros store plain 8-bit weights and the IPU broadcasts every bit column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.fta import FTAConfig, approximate_layer
from .buffers import BufferSet
from .config import DBPIMConfig
from .energy import EnergyBreakdown, EnergyModel
from .ipu import InputPreprocessingUnit
from .macro import MacroStats, PIMMacro
from .simd import SIMDCore

__all__ = ["LayerExecutionResult", "DBPIMAccelerator"]


@dataclass
class LayerExecutionResult:
    """Outputs and activity of one layer executed on the accelerator."""

    outputs: np.ndarray
    stats: MacroStats
    energy: EnergyBreakdown
    tiles: int = 0
    utilization: float = field(default=0.0)

    @property
    def cycles(self) -> int:
        return self.stats.broadcast_cycles


class DBPIMAccelerator:
    """Functional model of the full accelerator (PIM core + IPU + SIMD)."""

    def __init__(
        self,
        config: Optional[DBPIMConfig] = None,
        fta_config: Optional[FTAConfig] = None,
    ) -> None:
        self.config = config or DBPIMConfig()
        self.fta_config = fta_config or FTAConfig()
        self.buffers = BufferSet(self.config.buffers)
        self.simd = SIMDCore()
        self.energy_model = EnergyModel()
        self.ipu = InputPreprocessingUnit(
            self.config.macro.input_bits, self.config.macro.input_group
        )

    # ------------------------------------------------------------------
    # Layer execution
    # ------------------------------------------------------------------
    def run_linear(
        self,
        weights: np.ndarray,
        inputs: np.ndarray,
        apply_fta: bool = True,
    ) -> LayerExecutionResult:
        """Execute ``outputs = weights @ inputs`` on the PIM core.

        Args:
            weights: integer filter-major matrix ``(num_filters, num_inputs)``
                (INT8 range).  When weight sparsity is enabled and
                ``apply_fta`` is True the weights are first passed through
                the FTA algorithm (as the compiler would have done offline).
            inputs: unsigned integer activation vector ``(num_inputs,)``.

        Returns:
            A :class:`LayerExecutionResult`; ``outputs`` is exact for the
            weights actually stored (FTA-approximated when applicable).
        """
        weights = np.asarray(weights, dtype=np.int64)
        inputs = np.asarray(inputs, dtype=np.int64).reshape(-1)
        if weights.ndim != 2:
            raise ValueError("weights must be a 2-D filter-major matrix")
        if weights.shape[1] != inputs.size:
            raise ValueError("weights and inputs disagree on the input size")

        sparse = self.config.weight_sparsity
        skip_inputs = self.config.input_sparsity
        if sparse and apply_fta:
            weights = approximate_layer(weights, self.fta_config).approximated

        macro_config = self.config.macro
        if sparse:
            thresholds = approximate_layer(weights, self.fta_config).thresholds
            allocation = max(int(thresholds.max()), 1)
            filters_per_tile = macro_config.sparse_filters_per_macro(allocation)
        else:
            allocation = macro_config.weight_bits
            filters_per_tile = macro_config.dense_filters_per_macro
        inputs_per_tile = macro_config.rows

        total_stats = MacroStats()
        total_energy = EnergyBreakdown()
        outputs = np.zeros(weights.shape[0], dtype=np.int64)
        tiles = 0
        utilization_sum = 0.0

        # Vectorised tile accounting: the (filter x input) tile grid and its
        # per-tile buffer traffic are pure shape arithmetic, so they are
        # recorded in one batched pass before the functional execution loop.
        filter_counts = self._tile_counts(weights.shape[0], filters_per_tile)
        input_counts = self._tile_counts(inputs.size, inputs_per_tile)
        self._account_buffer_traffic_batch(filter_counts, input_counts, sparse)

        for filter_start in range(0, weights.shape[0], filters_per_tile):
            filter_stop = min(filter_start + filters_per_tile, weights.shape[0])
            for input_start in range(0, inputs.size, inputs_per_tile):
                input_stop = min(input_start + inputs_per_tile, inputs.size)
                tile_weights = weights[filter_start:filter_stop, input_start:input_stop]
                tile_inputs = inputs[input_start:input_stop]
                macro = PIMMacro(macro_config)
                if sparse:
                    macro.load_weights_sparse(tile_weights, allocation=allocation)
                else:
                    macro.load_weights_dense(tile_weights)
                tile_outputs, stats = macro.matvec(
                    tile_inputs, skip_zero_columns=skip_inputs
                )
                outputs[filter_start:filter_stop] += tile_outputs
                total_stats.merge(stats)
                utilization_sum += macro.storage_utilization
                tiles += 1
                total_energy.merge(self._tile_energy(stats, tile_weights, sparse))

        result = LayerExecutionResult(
            outputs=outputs,
            stats=total_stats,
            energy=total_energy,
            tiles=tiles,
            utilization=utilization_sum / max(tiles, 1),
        )
        return result

    def run_conv2d(
        self,
        weights: np.ndarray,
        feature_map: np.ndarray,
        stride: int = 1,
        padding: int = 0,
        apply_fta: bool = True,
    ) -> LayerExecutionResult:
        """Execute an integer convolution by lowering it to matrix multiplies.

        Args:
            weights: ``(Cout, Cin, K, K)`` integer weights.
            feature_map: ``(Cin, H, W)`` unsigned integer activations.
        """
        weights = np.asarray(weights, dtype=np.int64)
        feature_map = np.asarray(feature_map, dtype=np.int64)
        if weights.ndim != 4 or feature_map.ndim != 3:
            raise ValueError("expected 4-D weights and a 3-D feature map")
        out_channels, in_channels, kernel, _ = weights.shape
        if feature_map.shape[0] != in_channels:
            raise ValueError("channel mismatch between weights and feature map")
        padded = np.pad(
            feature_map, ((0, 0), (padding, padding), (padding, padding))
        )
        height, width = padded.shape[1:]
        out_h = (height - kernel) // stride + 1
        out_w = (width - kernel) // stride + 1
        weight_matrix = weights.reshape(out_channels, -1)

        combined: Optional[LayerExecutionResult] = None
        outputs = np.zeros((out_channels, out_h, out_w), dtype=np.int64)
        for oy in range(out_h):
            for ox in range(out_w):
                patch = padded[
                    :,
                    oy * stride : oy * stride + kernel,
                    ox * stride : ox * stride + kernel,
                ].reshape(-1)
                result = self.run_linear(weight_matrix, patch, apply_fta=apply_fta)
                outputs[:, oy, ox] = result.outputs
                if combined is None:
                    combined = result
                else:
                    combined.stats.merge(result.stats)
                    combined.energy.merge(result.energy)
                    combined.tiles += result.tiles
                    combined.utilization = (
                        combined.utilization + result.utilization
                    ) / 2
        assert combined is not None
        combined.outputs = outputs
        return combined

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _tile_counts(extent: int, tile: int) -> np.ndarray:
        """Per-tile element counts of one tiled dimension (last tile short)."""
        starts = np.arange(0, extent, tile, dtype=np.int64)
        return np.minimum(tile, extent - starts)

    def _account_buffer_traffic_batch(
        self,
        filter_counts: np.ndarray,
        input_counts: np.ndarray,
        sparse: bool,
    ) -> None:
        """Record the buffer traffic of a whole (filter x input) tile grid.

        One vectorised pass over the per-tile filter/input element counts,
        equivalent to the historical per-tile accounting calls: every tile
        reads its inputs from the feature buffer and its weights (plus
        sign/index metadata when weight sparsity is enabled) from the weight
        path, then writes its INT32 partial sums to the output RF.
        """
        tile_weight_sizes = np.multiply.outer(filter_counts, input_counts).ravel()
        num_filter_tiles = filter_counts.size
        self.buffers.feature.read_batch(np.tile(input_counts, num_filter_tiles))
        if sparse:
            # Values are packed as dyadic blocks (at most 2 per weight in the
            # evaluated configuration) plus sign+index metadata.
            self.buffers.weight.read_batch(tile_weight_sizes)
            self.buffers.meta.read_batch(tile_weight_sizes)
            self.buffers.meta_rf.read_batch(tile_weight_sizes)
        else:
            self.buffers.weight.read_batch(tile_weight_sizes)
        self.buffers.output_rf.write_batch(
            np.repeat(filter_counts * 4, input_counts.size)
        )

    def _tile_energy(
        self, stats: MacroStats, tile_weights: np.ndarray, sparse: bool
    ) -> EnergyBreakdown:
        """Energy of one tile from its macro activity."""
        meta_bytes = tile_weights.size if sparse else 0
        buffer_bytes = tile_weights.size + tile_weights.shape[1]
        return self.energy_model.layer_energy(
            cycles=stats.broadcast_cycles,
            cell_activations=stats.cell_activations,
            adder_tree_ops=stats.adder_tree_operations,
            post_processing_ops=stats.broadcast_cycles * tile_weights.shape[0],
            ipu_bits=tile_weights.shape[1] * self.config.macro.input_bits,
            meta_rf_bytes=meta_bytes,
            buffer_bytes=buffer_bytes,
        )
