"""Input Pre-processing Unit (IPU).

The IPU converts unsigned INT8 input features into a bit-serial stream and
skips bit positions whose entire broadcast group is zero (Fig. 6 of the
paper):

1. inputs are grouped (16 per group in the evaluated configuration);
2. for each group a *mask* marks the bit positions where at least one input
   has a non-zero bit (the OR across the group);
3. a leading-one detector walks the mask from the most significant position,
   emitting only the non-zero bit columns together with their position so
   the shift-and-add stage can weight the partial sums correctly.

The same module also provides the dense behaviour (no skipping) used by the
baseline, which simply emits all ``input_bits`` positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from ..core.csd import count_nonzero_bits_binary

__all__ = ["BitColumn", "InputPreprocessingUnit"]


@dataclass(frozen=True)
class BitColumn:
    """One broadcast step of the bit-serial input stream.

    Attributes:
        position: bit significance of this column (0 = LSB).
        bits: 0/1 vector with one entry per input element of the group.
    """

    position: int
    bits: np.ndarray


class InputPreprocessingUnit:
    """Bit-serial conversion with block-wise zero-column skipping."""

    def __init__(self, input_bits: int = 8, group_size: int = 16) -> None:
        if input_bits <= 0 or group_size <= 0:
            raise ValueError("input_bits and group_size must be positive")
        self.input_bits = input_bits
        self.group_size = group_size

    def zero_column_mask(self, inputs: np.ndarray) -> np.ndarray:
        """Per-bit-position mask: True where the whole group has a zero bit.

        Args:
            inputs: unsigned integer vector (one IPU group, any length up to
                the group size).

        Returns:
            Boolean array of length ``input_bits``; ``True`` marks columns
            the macro can skip.
        """
        inputs = self._validate(inputs)
        shifts = np.arange(self.input_bits)
        bits = (inputs[:, None] >> shifts) & 1
        return ~(bits.any(axis=0))

    def nonzero_columns(self, inputs: np.ndarray) -> List[BitColumn]:
        """The bit columns actually broadcast for one input group.

        Columns are emitted most-significant first, matching the
        leading-one-detection order of the hardware.
        """
        inputs = self._validate(inputs)
        mask = self.zero_column_mask(inputs)
        columns = []
        for position in reversed(range(self.input_bits)):
            if mask[position]:
                continue
            bits = ((inputs >> position) & 1).astype(np.int64)
            columns.append(BitColumn(position=position, bits=bits))
        return columns

    def all_columns(self, inputs: np.ndarray) -> List[BitColumn]:
        """Dense behaviour: every bit column, no skipping (baseline mode)."""
        inputs = self._validate(inputs)
        return [
            BitColumn(
                position=position,
                bits=((inputs >> position) & 1).astype(np.int64),
            )
            for position in reversed(range(self.input_bits))
        ]

    def iter_groups(self, inputs: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
        """Split a flat input vector into IPU groups (last group may be short)."""
        inputs = self._validate(inputs)
        for start in range(0, inputs.size, self.group_size):
            yield start, inputs[start : start + self.group_size]

    def broadcast_cycles(self, inputs: np.ndarray, skip_zero_columns: bool = True) -> int:
        """Number of bit-serial broadcast cycles needed for one input group."""
        if not skip_zero_columns:
            return self.input_bits
        mask = self.zero_column_mask(inputs)
        return int(np.count_nonzero(~mask))

    def group_active_columns(self, inputs: np.ndarray) -> np.ndarray:
        """Non-zero bit-column count of every IPU group, in one array pass.

        Pads the flat activation vector with zeros up to a whole number of
        groups (zeros never add active columns), reshapes it to
        ``(groups, group_size)``, ORs each group into the mask the
        leading-one detector walks and counts the mask's set bits by table
        lookup -- the vectorized equivalent of calling
        :meth:`broadcast_cycles` on every group in a Python loop.

        Args:
            inputs: flat unsigned integer activation vector (any length).

        Returns:
            ``int64`` array with one active-column count per group.
        """
        return self._group_active_columns(self._validate(inputs))

    def _group_active_columns(self, inputs: np.ndarray) -> np.ndarray:
        """:meth:`group_active_columns` of an already validated vector."""
        groups = -(-inputs.size // self.group_size)
        if inputs.size % self.group_size:
            padded = np.zeros(groups * self.group_size, dtype=np.int64)
            padded[: inputs.size] = inputs
            inputs = padded
        group_or = np.bitwise_or.reduce(
            inputs.reshape(groups, self.group_size), axis=1
        )
        return count_nonzero_bits_binary(group_or, self.input_bits).astype(
            np.int64, copy=False
        )

    def average_active_columns(
        self, inputs: np.ndarray, skip_zero_columns: bool = True
    ) -> float:
        """Average broadcast cycles per group over a whole activation tensor.

        This is the quantity the cycle-level performance model needs: the
        expected number of input bit positions that must be processed per
        group of ``group_size`` activations.  Computed by one vectorized
        pass over all groups (see :meth:`group_active_columns`).
        """
        inputs = self._validate(inputs)
        if not skip_zero_columns:
            return float(self.input_bits)
        per_group = self._group_active_columns(inputs)
        return int(per_group.sum()) / per_group.size

    def _validate(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.int64)
        if inputs.ndim != 1:
            inputs = inputs.reshape(-1)
        if inputs.size == 0:
            raise ValueError("IPU received an empty input group")
        if inputs.min() < 0 or inputs.max() >= (1 << self.input_bits):
            raise ValueError(
                f"inputs must be unsigned {self.input_bits}-bit integers"
            )
        return inputs
