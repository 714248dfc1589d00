"""Exhaustive check of :func:`layer_statistics` over the INT8 codes.

INT8 weights histogram over the fixed CSD domain of their width, dotted
with per-code tables built once per configuration.  Every one of the 255
symmetric INT8 codes is checked against the element-wise reference
(:func:`approximate_layer` and per-weight digit and bit counts): as 255
one-weight filters, and as one filter holding them all, at every
``max_threshold`` an 8-digit word allows and in both query-table modes.
The cached tables are also checked to be read-only and reused.
"""

import numpy as np
import pytest

from repro.core.csd import count_nonzero_bits_binary, count_nonzero_digits_array
from repro.core.fta import (
    FTAConfig,
    _domain_tables,
    approximate_layer,
    layer_statistics,
)
from repro.core.query_table import QueryTableMode

CODES = np.arange(-127, 128)
LAYERS = {
    "one-filter-per-code": CODES.reshape(-1, 1),
    "all-codes-in-one-filter": CODES.reshape(1, -1),
}


def element_wise(weights, config):
    result = approximate_layer(weights, config)
    return (
        result.thresholds.tolist(),
        int(count_nonzero_digits_array(weights).sum()),
        int(count_nonzero_digits_array(result.approximated).sum()),
        int(count_nonzero_bits_binary(weights).sum()),
    )


@pytest.mark.parametrize("mode", (QueryTableMode.AT_MOST, QueryTableMode.EXACT))
@pytest.mark.parametrize("max_threshold", range(5))
@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_int8_code_matches_the_element_wise_totals(layer, max_threshold, mode):
    weights = LAYERS[layer]
    config = FTAConfig(max_threshold=max_threshold, table_mode=mode)
    stats = layer_statistics(weights, config)
    observed = (
        stats.thresholds.tolist(),
        stats.csd_nonzero,
        stats.fta_nonzero,
        stats.binary_nonzero,
    )
    assert observed == element_wise(weights, config)


def test_tables_are_cached_read_only_and_span_the_csd_domain():
    config = FTAConfig()
    tables = _domain_tables(config, 8)
    assert _domain_tables(FTAConfig(), 8) is tables
    assert (tables.codes[0], tables.codes[-1]) == (-170, 170)
    layer_statistics(LAYERS["all-codes-in-one-filter"], config)
    rows = [tables.snapped_digits(threshold) for threshold in (1, 2)]
    assert tables.snapped_digits(1) is rows[0]
    tables_and_rows = [tables.codes, tables.one_hot, tables.csd_digits, tables.set_bits]
    for array in tables_and_rows + rows:
        assert not array.flags.writeable
