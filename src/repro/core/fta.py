"""Fixed Threshold Approximation (FTA) -- Algorithm 1 of the DB-PIM paper.

The FTA algorithm makes the *number* of non-zero CSD digits uniform across
all weights of a filter while leaving their *positions* unstructured:

1. every quantized weight of the filter is converted to CSD and its non-zero
   digit count ``φ`` is recorded;
2. the filter threshold ``φ_th`` is derived from the mode of those counts,
   clipped to the range ``0..2`` (the paper finds 2 to be the prevalent mode
   and caps the threshold there to bound the per-weight storage);
3. every weight is snapped to the closest value in the query table
   ``T(φ_th)``.

The resulting filter can be compressed to exactly ``φ_th`` dyadic blocks per
weight, which is what lets the DB-PIM macro map 16/φ_th filters per macro and
keep every active SRAM cell doing useful work.

:func:`approximate_layer` returns the snapped weights;
:func:`layer_statistics` returns only the thresholds and digit totals,
computed exactly from a per-filter histogram of the layer's codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence

import numpy as np

from .csd import (
    _LUT_MAX_WIDTH,
    DEFAULT_WIDTH,
    _check_domain,
    count_nonzero_bits_binary,
    count_nonzero_digits_array,
    max_value,
    min_value,
)
from .query_table import QueryTableMode, max_phi, nearest_in_table_array

__all__ = [
    "FTAConfig",
    "FilterApproximation",
    "FTAResult",
    "FTAStatistics",
    "filter_threshold",
    "approximate_filter",
    "approximate_layer",
    "layer_statistics",
    "approximate_model",
]

#: The paper caps the per-filter threshold at two non-zero digits.
MAX_THRESHOLD = 2


@dataclass(frozen=True)
class FTAConfig:
    """Configuration of the FTA algorithm.

    Attributes:
        width: CSD digit width (8 for INT8 weights).
        max_threshold: upper clip applied to the per-filter threshold.
        value_low: inclusive lower bound of the integer weight domain.
        value_high: inclusive upper bound of the integer weight domain.
        table_mode: query-table construction mode (see
            :mod:`repro.core.query_table`).  ``at_most`` is the default and
            matches the paper's reported utilisation; ``exact`` follows the
            literal Algorithm 1 set definition.
    """

    width: int = DEFAULT_WIDTH
    max_threshold: int = MAX_THRESHOLD
    value_low: int = -128
    value_high: int = 127
    table_mode: str = QueryTableMode.AT_MOST

    def __post_init__(self) -> None:
        QueryTableMode.validate(self.table_mode)
        if self.max_threshold < 0:
            raise ValueError("max_threshold must be non-negative")
        if self.value_low > self.value_high:
            raise ValueError("empty weight value domain")


@dataclass
class FilterApproximation:
    """FTA output for a single filter.

    Attributes:
        threshold: the chosen ``φ_th`` for the filter.
        original: the quantized integer weights before approximation.
        approximated: the integer weights after snapping to ``T(φ_th)``.
        phi_counts: per-weight non-zero CSD digit counts of the original
            weights (useful for analytics and tests).
    """

    threshold: int
    original: np.ndarray
    approximated: np.ndarray
    phi_counts: np.ndarray

    @property
    def mean_absolute_error(self) -> float:
        """Average absolute perturbation introduced by the approximation."""
        return float(np.abs(self.approximated - self.original).mean())

    @property
    def num_weights(self) -> int:
        return int(self.original.size)


@dataclass
class FTAResult:
    """FTA output for a whole layer (a stack of filters), array-backed.

    Attributes:
        thresholds: per-filter thresholds ``Φ_th``, shape ``(filters,)``.
        approximated: approximated weights, in the layer's filter-major
            shape ``(filters, ...)``.
        original: the quantized weights before approximation (same shape).
        phi_counts: per-weight non-zero CSD digit counts of ``original``.
        config: the configuration used.
    """

    thresholds: np.ndarray
    approximated: np.ndarray
    original: np.ndarray
    phi_counts: np.ndarray
    config: FTAConfig = field(default_factory=FTAConfig)

    @cached_property
    def filters(self) -> List[FilterApproximation]:
        """Per-filter views of the layer arrays, in filter order (built on
        first access)."""
        return [
            FilterApproximation(
                threshold=int(threshold),
                original=self.original[index],
                approximated=self.approximated[index],
                phi_counts=self.phi_counts[index],
            )
            for index, threshold in enumerate(self.thresholds)
        ]

    def threshold_histogram(self) -> Dict[int, int]:
        """Count of filters per threshold value (ascending thresholds)."""
        counts = np.bincount(self.thresholds)
        return {int(value): int(counts[value]) for value in np.flatnonzero(counts)}


def _mode_of_counts(counts: np.ndarray) -> int:
    """Most frequent value in ``counts`` (smallest value wins ties)."""
    values, frequencies = np.unique(counts, return_counts=True)
    return int(values[np.argmax(frequencies)])


def filter_threshold(
    weights: np.ndarray, config: Optional[FTAConfig] = None
) -> int:
    """Derive the FTA threshold ``φ_th`` for one filter (Alg. 1 lines 6-14).

    Args:
        weights: integer weight vector of the filter.
        config: FTA configuration (defaults apply when omitted).

    Returns:
        The threshold in ``0 .. config.max_threshold``.
    """
    config = config or FTAConfig()
    weights = np.asarray(weights, dtype=np.int64).reshape(-1)
    if weights.size == 0:
        raise ValueError("cannot derive a threshold for an empty filter")
    counts = count_nonzero_digits_array(weights, config.width)
    if np.all(counts == 0):
        return 0
    mode = _mode_of_counts(counts)
    if mode == 0:
        return 1
    return min(mode, config.max_threshold)


def approximate_filter(
    weights: np.ndarray, config: Optional[FTAConfig] = None
) -> FilterApproximation:
    """Apply FTA to one filter: derive ``φ_th`` and snap every weight.

    Args:
        weights: integer weight array of any shape; the shape is preserved in
            the output.
        config: FTA configuration.
    """
    config = config or FTAConfig()
    weights = np.asarray(weights, dtype=np.int64)
    flat = weights.reshape(-1)
    counts = count_nonzero_digits_array(flat, config.width)
    threshold = filter_threshold(flat, config)
    if threshold == 0:
        approximated = np.zeros_like(flat)
    else:
        approximated = _snap_values(flat, threshold, config)
    return FilterApproximation(
        threshold=threshold,
        original=weights.copy(),
        approximated=approximated.reshape(weights.shape),
        phi_counts=counts.reshape(weights.shape),
    )


def _filter_major(weights: np.ndarray) -> np.ndarray:
    """``weights`` as int64 with the filters along axis 0 (a 1-D array is
    one weight per filter).

    Raises:
        ValueError: for an empty layer or an empty filter.
    """
    weights = np.asarray(weights, dtype=np.int64)
    if weights.ndim < 1 or weights.shape[0] == 0:
        raise ValueError("layer weights must contain at least one filter")
    if weights.ndim == 1:
        weights = weights.reshape(weights.shape[0], 1)
    if weights[0].size == 0:
        raise ValueError("cannot derive a threshold for an empty filter")
    return weights


def _row_histograms(values: np.ndarray, bins: int, low: int = 0) -> np.ndarray:
    """``(rows, bins)`` counts of each row of a matrix of ``low ..
    low+bins-1`` values, as one ``np.bincount`` over row-offset bins."""
    rows = values.shape[0]
    offsets = np.arange(rows, dtype=np.int64)[:, None] * bins - low
    return np.bincount(
        (values + offsets).reshape(-1), minlength=rows * bins
    ).reshape(rows, bins)


def _thresholds_from_histograms(
    histograms: np.ndarray, max_threshold: int
) -> np.ndarray:
    """The mode -> ``φ_th`` rule over a ``(filters, bins)`` histogram of
    per-weight CSD digit counts (vectorised :func:`filter_threshold`).

    The argmax is the mode, so the smallest count wins ties; a mode of 0
    becomes 1, larger modes are capped at ``max_threshold``, and a filter
    whose weights are all zero gets 0.
    """
    mode = histograms.argmax(axis=1)
    thresholds = np.where(mode == 0, 1, np.minimum(mode, max_threshold))
    thresholds[histograms[:, 0] == histograms.sum(axis=1)] = 0  # all-zero
    return thresholds.astype(np.int64)


def _snap_values(values: np.ndarray, threshold: int, config: FTAConfig) -> np.ndarray:
    """Snap ``values`` to the nearest entry of ``T(threshold)``."""
    return nearest_in_table_array(
        values,
        threshold,
        low=config.value_low,
        high=config.value_high,
        width=config.width,
        mode=config.table_mode,
    )


@lru_cache(maxsize=64)
def _snap_row(config: FTAConfig, threshold: int) -> np.ndarray:
    """Read-only snap of every CSD-domain value to ``T(threshold)``.

    Entry ``i`` is :func:`_snap_values` of ``min_value(config.width) + i``;
    an empty ``T(threshold)`` raises the query table's ``ValueError``.
    """
    domain = np.arange(min_value(config.width), max_value(config.width) + 1)
    row = _snap_values(domain, threshold, config)
    row.flags.writeable = False
    return row


def _snap_lookup(values: np.ndarray, threshold: int, config: FTAConfig) -> np.ndarray:
    """:func:`_snap_values` as one lookup per value into :func:`_snap_row`
    (words wider than the CSD count tables search the query table)."""
    if config.width > _LUT_MAX_WIDTH:
        return _snap_values(values, threshold, config)
    return _snap_row(config, threshold)[values - min_value(config.width)]


def approximate_layer(
    weights: np.ndarray, config: Optional[FTAConfig] = None
) -> FTAResult:
    """Apply FTA to a layer whose weights are stacked filter-major.

    One vectorised pass over the whole layer, equal to stacking
    :func:`approximate_filter` over the filters (the scalar reference,
    pinned exhaustively by the tests): a digit-count lookup per weight, one
    histogram pass for every filter's threshold, and, per distinct
    threshold, a lookup per weight in that threshold's cached snap row.

    Args:
        weights: array of shape ``(num_filters, ...)``; each slice along the
            first axis is treated as one filter (Alg. 1 groups the layer by
            filter).
        config: FTA configuration.

    Raises:
        ValueError: for an empty layer, or weights outside the CSD domain.
    """
    config = config or FTAConfig()
    weights = _filter_major(weights)
    flat = weights.reshape(weights.shape[0], -1)
    counts = count_nonzero_digits_array(flat, config.width)
    histograms = _row_histograms(counts, max_phi(config.width) + 1)
    thresholds = _thresholds_from_histograms(histograms, config.max_threshold)
    approximated = np.zeros_like(flat)
    for threshold in np.unique(thresholds[thresholds > 0]):
        rows = thresholds == threshold
        approximated[rows] = _snap_lookup(flat[rows], int(threshold), config)
    return FTAResult(
        thresholds=thresholds,
        approximated=approximated.reshape(weights.shape),
        original=weights.copy(),
        phi_counts=counts.reshape(weights.shape),
        config=config,
    )


@dataclass(frozen=True)
class FTAStatistics:
    """What the cycle model and Fig. 2(a) read from an FTA'd layer: its
    thresholds and three digit/bit totals, without per-weight arrays.

    Attributes:
        thresholds: per-filter thresholds ``Φ_th``, shape ``(filters,)``
            (equal to :attr:`FTAResult.thresholds`).
        csd_nonzero: non-zero CSD digits of the weights before FTA.
        fta_nonzero: non-zero CSD digits of the FTA-snapped weights.
        binary_nonzero: set bits of the weights' two's complement words.
        elements: weights per filter.
    """

    thresholds: np.ndarray
    csd_nonzero: int
    fta_nonzero: int
    binary_nonzero: int
    elements: int

    @property
    def size(self) -> int:
        """Number of weights in the layer."""
        return int(self.thresholds.size) * self.elements


class _CodeTables:
    """What :func:`layer_statistics` dots a layer's code histogram with.

    Per code of the sorted vector ``codes``: the one-hot of its FTA digit
    count ``φ`` (in ``config.width`` digits), its CSD digit count and its
    popcount (in ``width`` digits), all read-only; and, per threshold, the
    digit count of its snap into ``T(φ_th)``, built on first use (a race
    between threads builds the same row twice, harmlessly).
    """

    def __init__(self, codes: np.ndarray, config: FTAConfig, width: int) -> None:
        self.codes = codes
        self.config = config
        self.width = width
        phi = count_nonzero_digits_array(codes, config.width)
        self.one_hot = _read_only(
            (phi[:, None] == np.arange(max_phi(config.width) + 1)).astype(
                np.float64
            )
        )
        self.csd_digits = _read_only(count_nonzero_digits_array(codes, width))
        self.set_bits = _read_only(count_nonzero_bits_binary(codes, width))
        self._snapped: Dict[int, np.ndarray] = {}

    def snapped_digits(self, threshold: int) -> np.ndarray:
        """CSD digit count of every code's snap into ``T(threshold)``."""
        row = self._snapped.get(threshold)
        if row is None:
            snapped = _snap_lookup(self.codes, threshold, self.config)
            row = _read_only(count_nonzero_digits_array(snapped, self.width))
            self._snapped[threshold] = row
        return row


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=64)
def _domain_tables(config: FTAConfig, width: int) -> _CodeTables:
    """The :class:`_CodeTables` of every code a ``min(config.width,
    width)``-digit CSD word can hold (``-170 .. 170`` for width 8)."""
    domain_width = min(config.width, width)
    domain = np.arange(min_value(domain_width), max_value(domain_width) + 1)
    return _CodeTables(_read_only(domain), config, width)


def layer_statistics(
    weights: np.ndarray,
    config: Optional[FTAConfig] = None,
    width: int = DEFAULT_WIDTH,
) -> FTAStatistics:
    """:func:`approximate_layer`'s thresholds and digit totals, evaluated
    exactly on the per-filter histogram of the layer's integer codes.

    Every statistic of a weight is a function of its value, so one
    ``np.bincount`` gives a ``(filters, codes)`` histogram and each total
    is that histogram dotted with a per-code table: the CSD digit count,
    the popcount and, per distinct threshold, the digit count of the
    code's snap into ``T(φ_th)``.  The thresholds apply
    :func:`approximate_layer`'s mode rule to ``histogram @ one_hot(φ)``.
    Words of up to 8 digits histogram over the word's whole CSD domain
    (341 codes for INT8 weights), whose tables are built once per
    configuration; wider words histogram their distinct codes.

    Args:
        weights: filter-major integer array, as for :func:`approximate_layer`.
        config: FTA configuration; ``config.width`` sets the digit counts
            the thresholds derive from.
        width: word width of the three totals (the CSD digits, and the bits
            of the two's complement words).

    Raises:
        ValueError: as :func:`approximate_layer` does.
    """
    config = config or FTAConfig()
    weights = _filter_major(weights)
    flat = weights.reshape(weights.shape[0], -1)
    domain_width = min(config.width, width)
    _check_domain(flat, domain_width)
    if domain_width <= DEFAULT_WIDTH:
        tables = _domain_tables(config, width)
        histogram = _row_histograms(
            flat, tables.codes.size, min_value(domain_width)
        )
    else:
        codes, inverse = np.unique(flat.reshape(-1), return_inverse=True)
        tables = _CodeTables(codes, config, width)
        histogram = _row_histograms(inverse.reshape(flat.shape), codes.size)
    # Exact in float64 (integer sums below 2**53), and a BLAS product.
    phi_histogram = histogram.astype(np.float64) @ tables.one_hot
    thresholds = _thresholds_from_histograms(
        phi_histogram.astype(np.int64), config.max_threshold
    )
    fta_nonzero = 0
    for threshold in np.unique(thresholds[thresholds > 0]).tolist():
        fta_nonzero += int(
            histogram[thresholds == threshold].sum(axis=0)
            @ tables.snapped_digits(threshold)
        )
    per_value = histogram.sum(axis=0)
    return FTAStatistics(
        thresholds=thresholds,
        csd_nonzero=int(per_value @ tables.csd_digits),
        fta_nonzero=fta_nonzero,
        binary_nonzero=int(per_value @ tables.set_bits),
        elements=flat.shape[1],
    )


def approximate_model(
    layer_weights: Sequence[np.ndarray], config: Optional[FTAConfig] = None
) -> List[FTAResult]:
    """Apply FTA independently to every layer of a model.

    Args:
        layer_weights: iterable of filter-major integer weight arrays, one per
            layer (e.g. conv weights reshaped to ``(Cout, Cin*K*K)``).
        config: FTA configuration shared by all layers.
    """
    config = config or FTAConfig()
    return [approximate_layer(weights, config) for weights in layer_weights]
