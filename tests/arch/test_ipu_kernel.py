"""Exhaustive pins of the IPU's group-OR + popcount active-column count.

:meth:`InputPreprocessingUnit.group_active_columns` ORs each broadcast
group into the mask the leading-one detector walks and counts its set bits
by table lookup.  The reference below is the bit-plane formulation it
replaced (every input expanded to ``input_bits`` planes, OR'd per column);
the counts must be equal element for element and stay ``int64``.
"""

import numpy as np
import pytest

from repro.arch.ipu import InputPreprocessingUnit


def reference_active_columns(inputs, group_size, input_bits=8):
    inputs = np.asarray(inputs, dtype=np.int64).reshape(-1)
    groups = -(-inputs.size // group_size)
    padded = np.zeros(groups * group_size, dtype=np.int64)
    padded[: inputs.size] = inputs
    grouped = padded.reshape(groups, group_size)
    bits = (grouped[:, :, None] >> np.arange(input_bits)) & 1
    return bits.any(axis=1).sum(axis=1).astype(np.int64)


def assert_matches_reference(inputs, group_size, input_bits=8):
    ipu = InputPreprocessingUnit(input_bits, group_size)
    active = ipu.group_active_columns(inputs)
    assert active.dtype == np.int64
    np.testing.assert_array_equal(
        active, reference_active_columns(inputs, group_size, input_bits)
    )


def test_every_value_at_group_size_one():
    assert_matches_reference(np.arange(256), 1)


def test_every_pair_at_group_size_two():
    values = np.arange(256)
    pairs = np.stack(np.meshgrid(values, values, indexing="ij"), axis=-1)
    assert_matches_reference(pairs.reshape(-1), 2)


@pytest.mark.parametrize("group_size", range(1, 33))
def test_random_groups_with_zero_padded_tail(group_size):
    rng = np.random.default_rng(group_size)
    for _ in range(20):
        # A ragged length leaves a partial last group, zero-padded.
        size = int(rng.integers(1, 40 * group_size))
        density = rng.random()
        inputs = np.where(
            rng.random(size) < density, rng.integers(0, 256, size), 0
        )
        assert_matches_reference(inputs, group_size)


def test_other_input_widths_match_reference():
    rng = np.random.default_rng(5)
    for input_bits in (1, 4, 16, 20):
        inputs = rng.integers(0, 1 << input_bits, size=101)
        for group_size in (1, 7, 16):
            assert_matches_reference(inputs, group_size, input_bits)


def test_validation_still_raises():
    ipu = InputPreprocessingUnit(8, 16)
    with pytest.raises(ValueError, match="empty"):
        ipu.group_active_columns(np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="unsigned 8-bit"):
        ipu.group_active_columns(np.array([1, -1]))
    with pytest.raises(ValueError, match="unsigned 8-bit"):
        ipu.group_active_columns(np.array([1, 256]))
