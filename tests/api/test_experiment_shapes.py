"""Shape checks of every paper table/figure through the façade.

Not absolute numbers: orderings, row counts and the formatters' output,
on ``Experiment(...).run(<id>)`` rows and the typed-row methods.
"""

import pytest

from repro.api import Experiment
from repro.api.formatting import (
    format_accuracy,
    format_area,
    format_comparison,
    format_input_sparsity,
    format_related_work,
    format_speedup_energy,
    format_weight_sparsity,
)
from repro.arch.config import DBPIMConfig


class TestFig2:
    def test_weight_sparsity_orderings(self):
        rows = Experiment().run(
            "fig2a", models=["alexnet", "efficientnetb0"]
        ).rows
        assert len(rows) == 2
        for row in rows:
            assert 0.5 < row.binary_zero_ratio < 1.0
            assert row.csd_zero_ratio >= row.binary_zero_ratio - 0.02
            assert row.fta_zero_ratio >= row.csd_zero_ratio - 1e-9
        table = format_weight_sparsity(rows)
        assert "alexnet" in table

    def test_input_sparsity_group_monotonicity(self):
        rows = Experiment().run("fig2b", models=["alexnet"]).rows
        ratios = rows[0].zero_column_ratio
        assert ratios[1] >= ratios[8] >= ratios[16]
        assert "group 16" in format_input_sparsity(rows)


class TestTable1:
    def test_rows_and_ours(self):
        rows = Experiment().run("table1").rows
        assert len(rows) == 6
        ours = rows[-1]
        assert ours.sparsity_type == "bit"
        assert ours.weight_or_input == "W+I"
        assert ours.unstructured and ours.digital
        assert "DB-PIM" in format_related_work(rows)

    def test_ours_row_follows_config(self):
        config = DBPIMConfig().weight_sparsity_only()
        row = Experiment(config=config).related_work_ours()
        assert row.weight_or_input == "W"


class TestTable2:
    def test_single_model_accuracy_drop_is_small(self):
        rows = Experiment(seed=0).run(
            "table2", models=["alexnet"], epochs=6, qat_epochs=1
        ).rows
        (row,) = rows
        assert row.int8_accuracy > 0.5
        assert row.fta_accuracy > 0.4
        # The FTA approximation should not collapse accuracy; the paper
        # reports <1% drop, we allow a loose margin for the tiny models.
        assert row.accuracy_drop < 0.15
        assert "alexnet" in format_accuracy([row])


class TestFig7:
    def test_speedup_shape(self):
        rows = Experiment().run(
            "fig7", models=["alexnet", "mobilenetv2"]
        ).rows
        by_name = {row.model: row for row in rows}
        alexnet, mobilenet = by_name["alexnet"], by_name["mobilenetv2"]
        for row in rows:
            assert row.speedup["hybrid"] > row.speedup["weight"] > 1.0
            assert row.speedup["hybrid"] > row.speedup["input"] > 1.0
            assert 0.0 < row.energy_saving["hybrid"] < 1.0
        assert alexnet.speedup["hybrid"] > mobilenet.speedup["hybrid"]
        assert alexnet.energy_saving["hybrid"] > mobilenet.energy_saving["hybrid"]
        assert "alexnet" in format_speedup_energy(rows)


class TestTable3:
    def test_ours_column_beats_prior_works_where_claimed(self):
        columns = Experiment().run(
            "table3", models=["alexnet", "efficientnetb0"]
        ).rows
        ours = columns[-1]
        priors = columns[:-1]
        assert ours.design.startswith("DB-PIM")
        # Claimed: highest utilisation, highest GOPS/macro, highest
        # efficiency per unit area.
        for value in ours.actual_utilization.values():
            assert value > 0.7
        assert ours.peak_gops_per_macro > max(p.peak_gops_per_macro for p in priors) * 0.9
        assert ours.efficiency_per_area > max(p.efficiency_per_area for p in priors)
        assert ours.die_area_mm2 < min(p.die_area_mm2 for p in priors)
        assert "DB-PIM" in format_comparison(columns)


class TestTable4:
    def test_breakdown_matches_paper_shape(self):
        rows = Experiment().run("table4").rows
        by_name = {row.module: row for row in rows}
        assert by_name["Total"].area_mm2 == pytest.approx(1.15453, abs=1e-3)
        assert by_name["PIM Baseline"].breakdown == pytest.approx(0.8732, abs=0.01)
        assert by_name["Meta-RFs"].breakdown > by_name[
            "Extra Post-processing Units"
        ].breakdown
        assert by_name["Input Sparsity Support"].breakdown < 0.001
        assert "Total" in format_area(rows)
