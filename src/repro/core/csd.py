"""Canonical Signed Digit (CSD) encoding.

CSD is a radix-2 signed-digit number representation with digits drawn from
``{-1, 0, +1}`` under the constraint that no two adjacent digits are both
non-zero.  Every integer has a unique CSD representation, and that
representation has the minimum possible number of non-zero digits -- on
average about 33% fewer than plain two's complement.  The DB-PIM paper uses
CSD re-encoding of INT8 weights as the first step of its Fixed Threshold
Approximation (FTA) algorithm because:

* the added zero digits increase bit-level sparsity, and
* the no-adjacent-non-zero property guarantees that each 2-bit *dyadic block*
  of a CSD word contains at most one non-zero digit, which is what allows a
  block to be packed into a single cross-coupled 6T SRAM cell.

This module provides conversions between Python integers / numpy arrays and
CSD digit vectors, plus the small helpers (non-zero counting, validation,
pretty printing) the rest of the library builds on.

The two counting helpers the profiling hot path calls for every weight
(:func:`count_nonzero_digits_array`, :func:`count_nonzero_bits_binary`) are
table lookups: for widths up to 16 digits the count of every
value in the width's domain is computed once from the digit-plane
conversions and cached read-only.  Wider words take the digit-plane path.

Digit vectors are numpy ``int8`` arrays ordered least-significant digit
first: ``digits[k]`` is the coefficient of ``2**k``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Sequence

import numpy as np

__all__ = [
    "DEFAULT_WIDTH",
    "to_csd",
    "from_csd",
    "to_csd_array",
    "from_csd_array",
    "count_nonzero_digits",
    "count_nonzero_digits_array",
    "is_valid_csd",
    "csd_to_string",
    "csd_from_string",
    "min_value",
    "max_value",
    "binary_digits",
    "count_nonzero_bits_binary",
]

#: Default digit width used throughout the library.  Eight digits are enough
#: to represent every signed INT8 value (``-128 .. 127``) in CSD form.
DEFAULT_WIDTH = 8

#: Widest word whose per-value counts are tabulated (a width-16 table has
#: 87,381 CSD entries and 65,536 popcount entries).
_LUT_MAX_WIDTH = 16


def min_value(width: int = DEFAULT_WIDTH) -> int:
    """Smallest integer representable by a CSD word of ``width`` digits.

    The most negative valid CSD word alternates ``-1`` digits starting from
    the most significant position (no two adjacent non-zeros).
    """
    return -max_value(width)


def max_value(width: int = DEFAULT_WIDTH) -> int:
    """Largest integer representable by a CSD word of ``width`` digits."""
    total = 0
    position = width - 1
    while position >= 0:
        total += 1 << position
        position -= 2
    return total


def to_csd(value: int, width: int = DEFAULT_WIDTH) -> np.ndarray:
    """Convert an integer to its CSD digit vector (LSB first).

    The conversion uses the standard non-adjacent form (NAF) recurrence: when
    the remaining value is odd, emit ``2 - (value mod 4)`` (which is ``+1`` or
    ``-1``) so that the next digit is guaranteed to be zero.

    Args:
        value: integer to convert.
        width: number of digit positions in the output vector.

    Returns:
        ``int8`` array of length ``width`` with entries in ``{-1, 0, 1}``.

    Raises:
        ValueError: if ``value`` does not fit in ``width`` CSD digits.
    """
    value = int(value)
    if value < min_value(width) or value > max_value(width):
        raise ValueError(
            f"value {value} is not representable in {width} CSD digits "
            f"(range [{min_value(width)}, {max_value(width)}])"
        )
    digits = np.zeros(width, dtype=np.int8)
    remaining = value
    position = 0
    while remaining != 0:
        if position >= width:
            # The range check above should make this unreachable, but guard
            # against inconsistent edits to ``min_value``/``max_value``.
            raise ValueError(
                f"value {value} overflowed {width} CSD digits during conversion"
            )
        if remaining & 1:
            digit = 2 - (remaining % 4)
            digits[position] = digit
            remaining -= digit
        remaining //= 2
        position += 1
    return digits


def from_csd(digits: Sequence[int]) -> int:
    """Evaluate a CSD (or any signed-digit) vector back to an integer."""
    total = 0
    for position, digit in enumerate(digits):
        total += int(digit) << position
    return total


def _check_domain(values: np.ndarray, width: int) -> None:
    """Raise ``ValueError`` unless every value fits ``width`` CSD digits."""
    low, high = min_value(width), max_value(width)
    if values.size and (values.min() < low or values.max() > high):
        raise ValueError(
            f"values outside the representable range [{low}, {high}] "
            f"for width {width}"
        )


def to_csd_array(values: np.ndarray, width: int = DEFAULT_WIDTH) -> np.ndarray:
    """Vectorised CSD conversion.

    Args:
        values: integer array of any shape.
        width: digits per element.

    Returns:
        ``int8`` array of shape ``values.shape + (width,)``; the trailing axis
        holds digits LSB first.
    """
    values = np.asarray(values)
    flat = values.reshape(-1).astype(np.int64)
    _check_domain(flat, width)
    digits = np.zeros((flat.size, width), dtype=np.int8)
    remaining = flat.copy()
    for position in range(width):
        odd = (remaining & 1).astype(bool)
        mod4 = remaining % 4
        digit = np.where(odd, 2 - mod4, 0).astype(np.int64)
        digits[:, position] = digit
        remaining = (remaining - digit) // 2
    return digits.reshape(values.shape + (width,))


def from_csd_array(digits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_csd_array` (works on any signed-digit array)."""
    digits = np.asarray(digits, dtype=np.int64)
    width = digits.shape[-1]
    weights = (1 << np.arange(width)).astype(np.int64)
    return np.tensordot(digits, weights, axes=([-1], [0]))


def count_nonzero_digits(value: int, width: int = DEFAULT_WIDTH) -> int:
    """Number of non-zero digits in the CSD representation of ``value``."""
    return int(np.count_nonzero(to_csd(value, width)))


def count_nonzero_digits_array(
    values: np.ndarray, width: int = DEFAULT_WIDTH
) -> np.ndarray:
    """Per-element non-zero CSD digit counts for an integer array.

    One lookup per element into a cached table of the width's domain for
    widths up to 16; wider words count their digit planes.

    Raises:
        ValueError: if a value does not fit in ``width`` CSD digits.
    """
    if width > _LUT_MAX_WIDTH:
        return np.count_nonzero(to_csd_array(values, width), axis=-1)
    values = np.asarray(values).astype(np.int64, copy=False)
    _check_domain(values, width)
    return _digit_count_table(width)[values - min_value(width)]


@lru_cache(maxsize=None)
def _digit_count_table(width: int = DEFAULT_WIDTH) -> np.ndarray:
    """Read-only non-zero CSD digit count of every value in the domain.

    Entry ``i`` is the count of ``min_value(width) + i`` (for width 8, the
    341 values ``-170 .. 170``), built once from :func:`to_csd_array`.
    """
    domain = np.arange(min_value(width), max_value(width) + 1, dtype=np.int64)
    table = np.count_nonzero(to_csd_array(domain, width), axis=-1)
    table.flags.writeable = False
    return table


def is_valid_csd(digits: Sequence[int]) -> bool:
    """Check the CSD invariants: digits in {-1,0,1}, no adjacent non-zeros."""
    arr = np.asarray(digits)
    if arr.size == 0:
        return True
    if not np.isin(arr, (-1, 0, 1)).all():
        return False
    nonzero = arr != 0
    return not bool(np.any(nonzero[:-1] & nonzero[1:]))


def csd_to_string(digits: Sequence[int]) -> str:
    """Render a digit vector MSB-first using ``1``, ``0`` and ``-`` for -1.

    The paper writes -1 with an overbar; ``-`` keeps the string one character
    per digit which keeps block boundaries visually aligned.
    """
    symbols = {1: "1", 0: "0", -1: "-"}
    return "".join(symbols[int(d)] for d in reversed(list(digits)))


def csd_from_string(text: str) -> np.ndarray:
    """Parse the output of :func:`csd_to_string` back into a digit vector."""
    symbols = {"1": 1, "0": 0, "-": -1}
    try:
        msb_first: List[int] = [symbols[ch] for ch in text]
    except KeyError as exc:  # pragma: no cover - defensive
        raise ValueError(f"invalid CSD character {exc.args[0]!r}") from exc
    return np.asarray(list(reversed(msb_first)), dtype=np.int8)


def binary_digits(values: np.ndarray, width: int = DEFAULT_WIDTH) -> np.ndarray:
    """Two's complement bit planes of an integer array (LSB first).

    Used by the sparsity analytics to compare plain binary bit sparsity with
    CSD / FTA bit sparsity (Fig. 2(a) of the paper).
    """
    values = np.asarray(values)
    unsigned = np.asarray(values, dtype=np.int64) & ((1 << width) - 1)
    shifts = np.arange(width)
    return ((unsigned[..., None] >> shifts) & 1).astype(np.int8)


def count_nonzero_bits_binary(
    values: np.ndarray, width: int = DEFAULT_WIDTH
) -> np.ndarray:
    """Per-element count of set bits in the two's complement representation.

    One lookup per element into a cached popcount table for widths up to
    16; wider words count their bit planes.
    """
    if width > _LUT_MAX_WIDTH:
        return np.count_nonzero(binary_digits(values, width), axis=-1)
    unsigned = np.asarray(values, dtype=np.int64) & ((1 << width) - 1)
    return _popcount_table(width)[unsigned]


@lru_cache(maxsize=None)
def _popcount_table(width: int = DEFAULT_WIDTH) -> np.ndarray:
    """Read-only set-bit count of every ``width``-bit pattern, built once
    from :func:`binary_digits`."""
    patterns = np.arange(1 << width, dtype=np.int64)
    table = np.count_nonzero(binary_digits(patterns, width), axis=-1)
    table.flags.writeable = False
    return table


def iter_csd(values: Iterable[int], width: int = DEFAULT_WIDTH):
    """Yield ``(value, digits)`` pairs for an iterable of integers."""
    for value in values:
        yield value, to_csd(value, width)
