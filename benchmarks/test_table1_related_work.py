"""Table 1: sparsity-exploitation comparison among SRAM-PIM designs.

Paper reference: DB-PIM is the only design that removes ineffectual MACs for
both zero weight bits and zero input bits, digitally and for unstructured
sparsity.
"""

from conftest import print_section

from repro.api import Experiment
from repro.api.formatting import format_related_work


def test_table1_related_work(run_once):
    rows = run_once(Experiment().run, "table1").rows
    print_section("Table 1 - sparsity exploitation comparison", format_related_work(rows))

    ours = rows[-1]
    priors = rows[:-1]
    assert ours.design.startswith("DB-PIM")
    assert ours.sparsity_type == "bit"
    assert ours.weight_or_input == "W+I"
    assert ours.digital and ours.unstructured
    # No prior work covers weight AND input bit sparsity simultaneously.
    assert all(prior.weight_or_input != "W+I" for prior in priors)
    assert len(rows) == 6
