"""Table 3: detailed comparison with prior SRAM-PIM accelerators.

Paper reference: DB-PIM reports U_act of 91.95%-98.42% (vs <50% for prior
works), the highest peak throughput per macro (77.5 GOPS, up to 3.14x the
best prior), 18.14-45.20 TOPS/W system energy efficiency and the highest
energy efficiency per unit area (39.30 TOPS/W/mm^2) with a 1.15 mm^2 die.
"""

from conftest import print_section

from repro.api import Experiment
from repro.api.formatting import format_comparison

PAPER_REFERENCE = """Paper (DB-PIM column): area 1.15 mm2, SRAM 272 KB, PIM 8 KB, 4 macros,
U_act 91.95-98.42%, 77.5 GOPS/macro, 18.14-45.20 TOPS/W, 39.30 TOPS/W/mm2"""


def test_table3_comparison(run_once):
    columns = run_once(Experiment().run, "table3").rows
    print_section("Table 3 - comparison with prior works", format_comparison(columns))
    print(PAPER_REFERENCE)

    ours = columns[-1]
    priors = columns[:-1]
    assert ours.design.startswith("DB-PIM")
    # Utilisation: well above the <50% of prior bit-serial digital PIMs,
    # measured on all five networks.
    assert len(ours.actual_utilization) == 5
    for value in ours.actual_utilization.values():
        assert value > 0.7
    prior_utilizations = [
        value for prior in priors for value in prior.actual_utilization.values()
    ]
    assert min(ours.actual_utilization.values()) > max(prior_utilizations)
    # Throughput per macro: at least comparable to the best prior work and
    # clearly above the ~25 GOPS/macro designs.
    assert ours.peak_gops_per_macro > 2 * 25.0
    # Energy efficiency in the paper's band and the best per unit area.
    assert 10.0 < ours.energy_efficiency_tops_w < 60.0
    assert ours.efficiency_per_area > max(p.efficiency_per_area for p in priors)
    # Smallest die of the comparison.
    assert ours.die_area_mm2 < min(p.die_area_mm2 for p in priors)
    # Same technology and macro count as the paper's configuration.
    assert ours.technology_nm == 28
    assert ours.num_macros == 4
    assert ours.pim_size_kb == 8
