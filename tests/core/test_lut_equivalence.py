"""Exhaustive equivalence of the lookup-table fast paths and their references.

INT8 weights have a small domain, so the tables behind the profiling hot
path are checked value by value rather than by sampling: the CSD digit
count and popcount tables against the digit-plane conversions, every FTA
snap row against :func:`nearest_in_table_array` (the snap
:func:`approximate_filter` uses) one value at a time, and
the whole-layer :func:`approximate_layer` against stacking the per-filter
:func:`approximate_filter` reference at every threshold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import csd
from repro.core.fta import (
    FTAConfig,
    _snap_row,
    approximate_filter,
    approximate_layer,
)
from repro.core.query_table import (
    QueryTableMode,
    max_phi,
    nearest_in_table,
    nearest_in_table_array,
)

WIDTH = csd.DEFAULT_WIDTH
DOMAIN = np.arange(csd.min_value(WIDTH), csd.max_value(WIDTH) + 1)
MODES = (QueryTableMode.AT_MOST, QueryTableMode.EXACT)


class TestCountTables:
    def test_domain_is_width_8_csd_range(self):
        assert (DOMAIN[0], DOMAIN[-1]) == (-170, 170)
        assert csd._digit_count_table(WIDTH).shape == DOMAIN.shape

    def test_digit_count_table_matches_scalar_csd(self):
        expected = [csd.count_nonzero_digits(int(v), WIDTH) for v in DOMAIN]
        assert csd._digit_count_table(WIDTH).tolist() == expected
        assert csd.count_nonzero_digits_array(DOMAIN).tolist() == expected

    def test_digit_counts_match_digit_planes(self):
        planes = np.count_nonzero(csd.to_csd_array(DOMAIN), axis=-1)
        counts = csd.count_nonzero_digits_array(DOMAIN)
        np.testing.assert_array_equal(counts, planes)
        assert counts.dtype == planes.dtype

    def test_popcount_table_matches_every_8_bit_pattern(self):
        patterns = np.arange(256)
        expected = [bin(int(p)).count("1") for p in patterns]
        assert csd._popcount_table(WIDTH).tolist() == expected
        signed = patterns - 128  # the same patterns read as two's complement
        planes = np.count_nonzero(csd.binary_digits(signed), axis=-1)
        np.testing.assert_array_equal(
            csd.count_nonzero_bits_binary(signed), planes
        )

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            csd._digit_count_table(WIDTH)[0] = 7
        with pytest.raises(ValueError):
            csd._popcount_table(WIDTH)[0] = 7

    def test_multidimensional_shape_preserved(self):
        values = DOMAIN[:340].reshape(4, 5, 17)
        assert csd.count_nonzero_digits_array(values).shape == (4, 5, 17)
        assert csd.count_nonzero_bits_binary(values).shape == (4, 5, 17)

    def test_wide_words_take_the_digit_plane_path(self):
        values = np.array([0, 1, 3, 85, -(2**20), 2**30])
        expected = [csd.count_nonzero_digits(int(v), 32) for v in values]
        assert csd.count_nonzero_digits_array(values, 32).tolist() == expected
        assert csd.count_nonzero_bits_binary(values, 32).tolist() == [
            bin(int(v) & 0xFFFFFFFF).count("1") for v in values
        ]

    @pytest.mark.parametrize("bad", [171, -171, 1000])
    def test_out_of_domain_raises_the_digit_plane_error(self, bad):
        values = np.array([0, bad])
        with pytest.raises(ValueError) as reference:
            csd.to_csd_array(values)
        with pytest.raises(ValueError) as lookup:
            csd.count_nonzero_digits_array(values)
        assert str(lookup.value) == str(reference.value)


class TestSnapRows:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("threshold", range(1, max_phi(WIDTH) + 1))
    def test_every_row_matches_the_array_reference(self, mode, threshold):
        row = _snap_row(FTAConfig(table_mode=mode), threshold)
        assert row.shape == DOMAIN.shape and not row.flags.writeable
        expected = [
            int(nearest_in_table_array(np.array([v]), threshold, mode=mode)[0])
            for v in DOMAIN
        ]
        assert row.tolist() == expected
        scalar = [
            nearest_in_table(int(v), threshold, width=WIDTH, mode=mode)
            for v in DOMAIN
        ]
        differs = [int(v) for v, a, b in zip(DOMAIN, expected, scalar) if a != b]
        # The one known divergence of the two references: an exact table
        # without 0 leaves 0 equidistant from -1 and +1; the array path
        # (which FTA has always used) picks -1, the scalar path +1.
        assert differs == ([0] if mode == QueryTableMode.EXACT else [])

    def test_narrowed_range_rows_match(self):
        config = FTAConfig(value_low=-64, value_high=64, max_threshold=3)
        for threshold in range(1, 4):
            expected = [
                nearest_in_table(int(v), threshold, low=-64, high=64)
                for v in DOMAIN
            ]
            assert _snap_row(config, threshold).tolist() == expected

    def test_empty_query_table_row_raises(self):
        config = FTAConfig(table_mode="exact", value_low=-3, value_high=3)
        with pytest.raises(ValueError, match="empty"):
            _snap_row(config, 3)


def _reference(weights, config=None):
    """Stack the per-filter scalar reference into layer arrays."""
    weights = np.asarray(weights, dtype=np.int64)
    if weights.ndim == 1:
        weights = weights.reshape(-1, 1)
    filters = [approximate_filter(w, config) for w in weights]
    return (
        np.asarray([f.threshold for f in filters], dtype=np.int64),
        np.stack([f.approximated for f in filters]),
        np.stack([f.original for f in filters]),
        np.stack([f.phi_counts for f in filters]),
    )


def _assert_layer_matches_reference(weights, config=None):
    result = approximate_layer(weights, config)
    thresholds, approximated, original, phi_counts = _reference(weights, config)
    for got, want in (
        (result.thresholds, thresholds),
        (result.approximated, approximated),
        (result.original, original),
        (result.phi_counts, phi_counts),
    ):
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for view, threshold in zip(result.filters, thresholds):
        assert view.threshold == threshold and type(view.threshold) is int
    return result


CONFIGS = [
    None,
    FTAConfig(max_threshold=1),
    FTAConfig(max_threshold=3),
    FTAConfig(max_threshold=0),
    FTAConfig(table_mode="exact"),
    FTAConfig(max_threshold=3, table_mode="exact"),
    FTAConfig(value_low=-64, value_high=64),
    FTAConfig(value_low=0, value_high=127, table_mode="exact"),
    FTAConfig(width=20),
]


class TestApproximateLayerEquivalence:
    @pytest.mark.parametrize("config", CONFIGS, ids=repr)
    def test_every_domain_value_as_a_constant_filter(self, config):
        weights = np.repeat(DOMAIN[:, None], 3, axis=1)
        _assert_layer_matches_reference(weights, config)

    @pytest.mark.parametrize("config", CONFIGS, ids=repr)
    def test_edge_case_filters(self, config):
        weights = np.stack(
            [
                np.zeros(6, dtype=np.int64),  # all zero: threshold 0
                [0, 0, 0, 1, 3, 5],  # mode 0 -> threshold 1
                [1, 2, 3, 5, 0, 0],  # tie 0/1/2 -> smallest (0) -> 1
                [1, 2, 3, 5, 85, 85],  # tie 1/2/4 -> 1
                [3, 5, 85, 85, 1, 0],  # tie 2/4 -> 2
                [85, 85, 85, -85, 21, 3],  # mode 4 -> clipped
                [127, -128, 127, -128, 100, -100],
                [170, -170, 170, 0, 0, 0],  # outside INT8, inside CSD
            ]
        )
        _assert_layer_matches_reference(weights, config)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("max_threshold", range(0, max_phi(WIDTH) + 1))
    def test_every_threshold_snaps_every_domain_value(self, mode, max_threshold):
        # Filter p holds the whole domain plus a majority of a value with p
        # non-zero digits, so its mode is p and every domain value is
        # snapped at threshold 1 (p = 0), p, or the clip.
        config = FTAConfig(max_threshold=max_threshold, table_mode=mode)
        majority = [0, 1, 5, 21, 85]  # 0..4 non-zero CSD digits
        weights = np.stack(
            [np.concatenate([DOMAIN, np.full(DOMAIN.size + 1, v)]) for v in majority]
        )
        result = _assert_layer_matches_reference(weights, config)
        expected = [1] + [min(p, max_threshold) for p in range(1, 5)]
        assert result.thresholds.tolist() == expected

    def test_one_dimensional_input(self):
        result = _assert_layer_matches_reference(np.array([1, 3, 5, 0, -85]))
        assert result.approximated.shape == (5, 1)

    def test_multi_dimensional_filters_keep_their_shape(self):
        rng = np.random.default_rng(0)
        weights = rng.integers(-128, 128, size=(6, 3, 3, 4))
        result = _assert_layer_matches_reference(weights)
        assert result.approximated.shape == (6, 3, 3, 4)
        assert result.filters[2].approximated.shape == (3, 3, 4)

    @pytest.mark.parametrize("config", CONFIGS, ids=repr)
    def test_random_layers(self, config):
        rng = np.random.default_rng(7)
        for scale in (2, 8, 40, 128):
            weights = np.clip(
                np.round(rng.normal(0, scale, size=(32, 50))), -128, 127
            ).astype(np.int64)
            _assert_layer_matches_reference(weights, config)

    def test_histogram_is_a_bincount(self):
        result = approximate_layer(np.array([[0, 0], [1, 2], [3, 5], [1, 4]]))
        assert result.threshold_histogram() == {0: 1, 1: 2, 2: 1}
        assert list(result.threshold_histogram()) == [0, 1, 2]

    def test_empty_query_table_raises_only_when_needed(self):
        config = FTAConfig(
            max_threshold=3, table_mode="exact", value_low=-3, value_high=3
        )
        # No filter reaches threshold 3: the layer approximates fine.
        _assert_layer_matches_reference(np.array([[1, 2, 3], [3, 3, 1]]), config)
        needs_three = np.array([[21, 21, 42]])  # φ = 3 everywhere
        with pytest.raises(ValueError) as reference:
            approximate_filter(needs_three[0], config)
        with pytest.raises(ValueError) as layer:
            approximate_layer(needs_three, config)
        assert str(layer.value) == str(reference.value)

    @pytest.mark.parametrize("bad", [171, -200])
    def test_out_of_domain_raises_the_reference_error(self, bad):
        weights = np.array([[1, 2, 3], [4, bad, 6]])
        with pytest.raises(ValueError) as reference:
            approximate_filter(weights[1])
        with pytest.raises(ValueError) as layer:
            approximate_layer(weights)
        assert str(layer.value) == str(reference.value)

    def test_empty_filters_rejected(self):
        with pytest.raises(ValueError, match="empty filter"):
            approximate_layer(np.zeros((3, 0), dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda width: st.lists(
            st.lists(
                st.integers(min_value=-128, max_value=127),
                min_size=width,
                max_size=width,
            ),
            min_size=1,
            max_size=8,
        )
    ),
    st.sampled_from(CONFIGS[:-1]),
)
def test_property_layer_matches_stacked_filters(rows, config):
    _assert_layer_matches_reference(np.asarray(rows, dtype=np.int64), config)
