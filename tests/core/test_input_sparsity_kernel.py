"""Exhaustive pins of the group-OR + popcount input-sparsity kernel.

A group's zero bit columns are ``width - popcount(OR of the group)``.  The
reference below is the per-bit-plane formulation the kernel replaced: it
expands every activation into ``width`` bit planes and asks, per column,
whether any member of the group has a one there.  INT8 activations have
256 values, so group sizes 1 and 2 are checked over their whole domain and
larger groups over seeded random draws; ratios must agree to the last bit
(``float.hex``), not approximately.
"""

import numpy as np
import pytest

from repro.core.csd import binary_digits
from repro.core.sparsity import (
    input_block_zero_column_ratio,
    input_zero_bit_ratio,
)


def reference_zero_bit_ratio(activations, width=8):
    bits = binary_digits(np.asarray(activations, dtype=np.int64), width)
    return 1.0 - float(bits.sum()) / float(bits.size)


def reference_block_ratio(activations, group_size, width=8):
    activations = np.asarray(activations, dtype=np.int64).reshape(-1)
    num_groups = activations.size // group_size
    trimmed = activations[: num_groups * group_size]
    bits = binary_digits(trimmed, width).reshape(num_groups, group_size, width)
    return float((~bits.any(axis=1)).mean())


def test_every_value_at_group_size_one():
    for value in range(256):
        single = np.array([value])
        assert (
            input_block_zero_column_ratio(single, 1).hex()
            == reference_block_ratio(single, 1).hex()
        ), value
        assert (
            input_zero_bit_ratio(single).hex()
            == reference_zero_bit_ratio(single).hex()
        ), value
    every = np.arange(256)
    assert (
        input_block_zero_column_ratio(every, 1).hex()
        == reference_block_ratio(every, 1).hex()
    )


def test_every_pair_at_group_size_two():
    values = np.arange(256)
    pairs = np.stack(np.meshgrid(values, values, indexing="ij"), axis=-1)
    for pair in pairs.reshape(-1, 2):
        assert (
            input_block_zero_column_ratio(pair, 2).hex()
            == reference_block_ratio(pair, 2).hex()
        ), pair
    flat = pairs.reshape(-1)
    assert (
        input_block_zero_column_ratio(flat, 2).hex()
        == reference_block_ratio(flat, 2).hex()
    )


@pytest.mark.parametrize("group_size", range(1, 33))
def test_random_groups_with_trimmed_tail(group_size):
    rng = np.random.default_rng(group_size)
    for _ in range(20):
        # A ragged length leaves a partial last group, which is trimmed.
        size = group_size * int(rng.integers(1, 40)) + int(
            rng.integers(0, group_size)
        )
        density = rng.random()
        activations = np.where(
            rng.random(size) < density, rng.integers(0, 256, size), 0
        )
        assert (
            input_block_zero_column_ratio(activations, group_size).hex()
            == reference_block_ratio(activations, group_size).hex()
        )
        assert (
            input_zero_bit_ratio(activations).hex()
            == reference_zero_bit_ratio(activations).hex()
        )


def test_other_widths_match_reference():
    rng = np.random.default_rng(99)
    for width in (1, 4, 12, 16, 20):
        activations = rng.integers(0, 1 << width, size=257)
        for group_size in (1, 3, 16):
            ratio = input_block_zero_column_ratio(
                activations, group_size, width
            )
            reference = reference_block_ratio(activations, group_size, width)
            assert ratio.hex() == reference.hex()
        assert (
            input_zero_bit_ratio(activations, width).hex()
            == reference_zero_bit_ratio(activations, width).hex()
        )


def test_empty_activations_rejected():
    # Negative values and short groups are pinned in test_sparsity.py.
    with pytest.raises(ValueError, match="empty"):
        input_zero_bit_ratio(np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="empty"):
        input_block_zero_column_ratio(np.array([], dtype=np.int64), 1)
