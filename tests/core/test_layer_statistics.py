"""``layer_statistics`` against the element-wise FTA reference.

:func:`repro.core.fta.layer_statistics` derives a layer's thresholds and its
CSD / FTA / binary digit totals from one per-filter histogram of its codes.
Every number must equal what snapping each weight gives:
:func:`approximate_layer` for the thresholds and the snapped weights, and a
per-weight digit or bit count summed over the layer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FTAStatistics, layer_statistics
from repro.core.csd import count_nonzero_bits_binary, count_nonzero_digits_array
from repro.core.fta import FTAConfig, approximate_layer, filter_threshold
from repro.core.sparsity import weight_zero_bit_ratio_binary

CONFIGS = (
    FTAConfig(),
    FTAConfig(table_mode="exact"),
    FTAConfig(max_threshold=0),
    FTAConfig(max_threshold=1),
    FTAConfig(max_threshold=3),
    FTAConfig(width=20),
    FTAConfig(value_low=-64, value_high=64),
)


def reference(weights, config, width=8):
    """The statistics from per-weight arrays."""
    result = approximate_layer(weights, config)
    return (
        result.thresholds.tolist(),
        int(count_nonzero_digits_array(weights, width).sum()),
        int(count_nonzero_digits_array(result.approximated, width).sum()),
        int(count_nonzero_bits_binary(weights, width).sum()),
    )


def observed(stats):
    return (
        stats.thresholds.tolist(),
        stats.csd_nonzero,
        stats.fta_nonzero,
        stats.binary_nonzero,
    )


def assert_matches_reference(weights, config, width=8):
    weights = np.asarray(weights, dtype=np.int64)
    stats = layer_statistics(weights, config, width)
    assert observed(stats) == reference(weights, config, width)
    flat = weights.reshape(-1, 1) if weights.ndim == 1 else weights
    assert stats.thresholds.tolist() == [
        filter_threshold(row, config) for row in flat
    ]
    assert stats.thresholds.dtype == np.int64
    assert stats.size == weights.size
    assert stats.elements == flat[0].size
    if width == 8:
        # The profile's float expression of the binary zero-bit ratio.
        ratio = 1.0 - float(stats.binary_nonzero) / float(stats.size * 8)
        assert ratio == weight_zero_bit_ratio_binary(weights)


@st.composite
def integer_layers(draw):
    """Random ``(filters, elements)`` INT8 matrices, some filters all zero."""
    filters = draw(st.integers(1, 6))
    elements = draw(st.integers(1, 48))
    values = draw(
        st.lists(
            st.integers(-127, 127),
            min_size=filters * elements,
            max_size=filters * elements,
        )
    )
    weights = np.asarray(values, dtype=np.int64).reshape(filters, elements)
    zero_rows = draw(st.lists(st.booleans(), min_size=filters, max_size=filters))
    weights[np.asarray(zero_rows)] = 0
    return weights


@settings(max_examples=200, deadline=None)
@given(integer_layers(), st.sampled_from(CONFIGS))
def test_property_matches_element_wise_reference(weights, config):
    assert_matches_reference(weights, config)


FULL_SPAN = np.arange(-127, 128)


@pytest.mark.parametrize("config", CONFIGS, ids=repr)
@pytest.mark.parametrize(
    "weights",
    [
        np.zeros((4, 9)),
        np.array([[37]]),
        np.array([[0]]),
        np.array([[-127, 0, 5, 127]]),
        FULL_SPAN.reshape(1, -1),
        FULL_SPAN.reshape(5, 51),
        np.stack([FULL_SPAN, np.zeros_like(FULL_SPAN), -FULL_SPAN]),
        np.array([[0, 0, 0, 1], [0, 0, 0, 0], [3, 5, 0, 0]]),
        np.array([3, -1, 0, 64, 0]),
        np.arange(-120, 120).reshape(4, 6, 10),
    ],
    ids=[
        "all-zero",
        "single-element",
        "single-zero",
        "sparse-span",
        "full-span-one-filter",
        "full-span-five-filters",
        "zero-filter-between",
        "mode-zero-filters",
        "one-dimensional",
        "three-dimensional",
    ],
)
def test_edge_layers_match_reference(weights, config):
    assert_matches_reference(weights, config)


@pytest.mark.parametrize("width", [8, 12, 16, 20])
def test_total_width_is_independent_of_the_fta_width(width):
    rng = np.random.default_rng(width)
    weights = rng.integers(-127, 128, size=(6, 40))
    assert_matches_reference(weights, FTAConfig(), width)
    assert_matches_reference(weights, FTAConfig(width=20), width)


def test_codes_wider_than_the_layer_use_distinct_values():
    # Width-16 codes spread over ±20000 in a 16-weight layer: the histogram
    # is over the 16 distinct codes, not the 40001-value range.
    rng = np.random.default_rng(3)
    weights = rng.integers(-20000, 20001, size=(2, 8))
    config = FTAConfig(width=16, value_low=-21845, value_high=21845)
    assert_matches_reference(weights, config, width=16)


def test_errors_match_approximate_layer():
    for bad in (np.zeros((0, 4)), np.zeros((3, 0)), np.int64(5)):
        with pytest.raises(ValueError):
            approximate_layer(bad)
        with pytest.raises(ValueError):
            layer_statistics(bad)
    with pytest.raises(ValueError, match="representable"):
        layer_statistics(np.array([[171]]))


def test_result_is_frozen():
    stats = layer_statistics(np.array([[1, 2, 3]]))
    assert isinstance(stats, FTAStatistics)
    with pytest.raises(AttributeError):
        stats.fta_nonzero = 0
