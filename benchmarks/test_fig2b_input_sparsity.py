"""Fig. 2(b): ratio of all-zero bit columns in grouped input features.

Paper reference: when input features are grouped, a substantial fraction of
bit columns is zero across the whole group (the paper quotes up to ~80% for
groups of 8 and ~70% for groups of 16); larger groups always see fewer
skippable columns than smaller groups.
"""

from conftest import print_section

from repro.api import Experiment
from repro.api.formatting import format_input_sparsity

PAPER_REFERENCE = """Paper (approximate, read off Fig. 2(b)):
  group of 1 > group of 8 > group of 16; non-trivial skippable columns
  remain even at a group size of 16"""


def test_fig2b_input_sparsity(run_once):
    rows = run_once(Experiment().run, "fig2b").rows
    print_section(
        "Fig. 2(b) - all-zero bit columns in input feature groups",
        format_input_sparsity(rows),
    )
    print(PAPER_REFERENCE)

    assert len(rows) == 5
    for row in rows:
        ratios = row.zero_column_ratio
        # Monotone in the group size: a column of a larger group is zero
        # only if every smaller sub-group's column is zero.
        assert ratios[1] >= ratios[8] >= ratios[16]
        # The IPU still has something to skip at the hardware group size.
        assert ratios[16] > 0.05
        # And per-bit sparsity of activations is high.
        assert ratios[1] > 0.5
