"""Table 4: DB-PIM area breakdown.

Paper reference: total 1.15453 mm^2 -- PIM baseline 87.32%, meta RFs 6.78%,
extra post-processing units 5.42%, DFFs/routing 0.48%, input-sparsity
support ~0%.
"""

import pytest
from conftest import print_section

from repro.api import Experiment
from repro.api.formatting import format_area

PAPER_REFERENCE = """Paper: baseline 1.00809 (87.32%), meta RFs 0.07829 (6.78%),
extra post-processing 0.06259 (5.42%), DFFs/routing 0.00550 (0.48%),
input sparsity 0.00007 (~0%), total 1.15453 mm2"""


def test_table4_area_breakdown(run_once):
    rows = run_once(Experiment().run, "table4").rows
    print_section("Table 4 - DB-PIM area breakdown", format_area(rows))
    print(PAPER_REFERENCE)

    by_module = {row.module: row for row in rows}
    assert by_module["Total"].area_mm2 == pytest.approx(1.15453, abs=1e-3)
    # The dense baseline dominates; the co-design overhead is small and is
    # dominated by the meta RFs and the extra post-processing units.
    assert by_module["PIM Baseline"].breakdown == pytest.approx(0.8732, abs=0.01)
    assert by_module["Meta-RFs"].breakdown == pytest.approx(0.0678, abs=0.01)
    assert by_module["Extra Post-processing Units"].breakdown == pytest.approx(
        0.0542, abs=0.01
    )
    assert by_module["DFFs and Routing Resources"].breakdown < 0.01
    assert by_module["Input Sparsity Support"].breakdown < 0.001
    overhead = by_module["Total"].area_mm2 - by_module["PIM Baseline"].area_mm2
    assert overhead / by_module["Total"].area_mm2 < 0.15
