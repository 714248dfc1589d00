"""The activation censoring threshold equals ``np.quantile`` bit for bit.

:func:`synthesize_activations` takes its threshold from
:func:`repro.workloads.profiles._linear_quantile`, a one-rank partition
plus numpy's ``method="linear"`` arithmetic.  It must equal
``np.quantile`` by ``==`` on every workload layer's activation draw, and on
arbitrary sizes and quantiles, including 0, 1 and the exact ranks
``k / (n - 1)``.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.models import get_workload, list_workloads
from repro.workloads.profiles import MAX_SAMPLED_ACTIVATIONS, _linear_quantile


def assert_quantile_equal(values, q):
    before = values.copy()
    expected = np.quantile(values, q)
    observed = _linear_quantile(values, q)
    assert observed == expected, (values.size, q)
    assert type(observed) is type(expected)
    assert np.array_equal(values, before)  # the input is left in draw order


@pytest.mark.parametrize("seed", (0, 1, 7))
@pytest.mark.parametrize("name", list_workloads(None))
def test_every_layer_draw_matches_np_quantile(name, seed):
    workload = get_workload(name)
    for layer in workload.layers:
        # synthesize_activations' draw, up to the threshold.
        rng = np.random.default_rng(
            seed + (zlib.crc32(layer.name.encode()) % (1 << 16)) + 7
        )
        count = min(layer.activation_count, MAX_SAMPLED_ACTIVATIONS)
        values = np.abs(rng.standard_normal(size=count))
        assert_quantile_equal(values, 1.0 - workload.activation_density)


@st.composite
def samples(draw):
    size = draw(st.integers(1, 5000))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        size
    )
    if draw(st.booleans()):
        values = np.round(values, 1)  # many ties
    rank = st.integers(0, max(size - 1, 0)).map(
        lambda k: k / (size - 1) if size > 1 else 0.0
    )
    q = draw(st.one_of(st.just(0.0), st.just(1.0), rank, st.floats(0.0, 1.0)))
    return values, q


@settings(max_examples=300, deadline=None)
@given(samples())
def test_property_matches_np_quantile(sample):
    assert_quantile_equal(*sample)
