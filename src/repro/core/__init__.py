"""Core algorithmic contribution of the DB-PIM paper.

This package implements the algorithm half of the co-design: CSD encoding,
the dyadic-block sparsity pattern, the FTA approximation algorithm, the
supporting quantization toolbox and the bit-sparsity analytics used by the
paper's Fig. 2.
"""

from .csd import (
    DEFAULT_WIDTH,
    count_nonzero_digits,
    count_nonzero_digits_array,
    csd_to_string,
    from_csd,
    from_csd_array,
    is_valid_csd,
    to_csd,
    to_csd_array,
)
from .dyadic_block import (
    BLOCK_SIZE,
    BlockedWeight,
    DyadicBlock,
    blocks_of_value,
    nonzero_blocks_of_value,
    reconstruct_value,
    split_blocks,
)
from .fta import (
    FTAConfig,
    FTAResult,
    FTAStatistics,
    FilterApproximation,
    approximate_filter,
    approximate_layer,
    approximate_model,
    filter_threshold,
    layer_statistics,
)
from .query_table import QueryTableMode, build_table, nearest_in_table
from .quantization import (
    QuantizationParams,
    dequantize,
    fake_quantize_activations,
    fake_quantize_weights,
    fta_quantize_weights,
    quantize_activations,
    quantize_weights,
)
from .sparsity import (
    WeightSparsityReport,
    analyze_input_sparsity,
    analyze_weight_sparsity,
    input_block_zero_column_ratio,
    input_zero_bit_ratio,
    weight_zero_bit_ratio_binary,
    weight_zero_bit_ratio_csd,
    weight_zero_bit_ratio_fta,
)

__all__ = [
    "DEFAULT_WIDTH",
    "BLOCK_SIZE",
    "to_csd",
    "from_csd",
    "to_csd_array",
    "from_csd_array",
    "count_nonzero_digits",
    "count_nonzero_digits_array",
    "is_valid_csd",
    "csd_to_string",
    "DyadicBlock",
    "BlockedWeight",
    "split_blocks",
    "blocks_of_value",
    "nonzero_blocks_of_value",
    "reconstruct_value",
    "QueryTableMode",
    "build_table",
    "nearest_in_table",
    "FTAConfig",
    "FTAResult",
    "FTAStatistics",
    "FilterApproximation",
    "filter_threshold",
    "approximate_filter",
    "approximate_layer",
    "approximate_model",
    "layer_statistics",
    "QuantizationParams",
    "quantize_weights",
    "dequantize",
    "quantize_activations",
    "fake_quantize_weights",
    "fake_quantize_activations",
    "fta_quantize_weights",
    "WeightSparsityReport",
    "analyze_weight_sparsity",
    "analyze_input_sparsity",
    "weight_zero_bit_ratio_binary",
    "weight_zero_bit_ratio_csd",
    "weight_zero_bit_ratio_fta",
    "input_zero_bit_ratio",
    "input_block_zero_column_ratio",
]
