"""Tests for the Experiment façade: error paths, dispatch, sessions and
the result schema."""

import pytest

from repro.api import Experiment, Session, get_experiment_spec, list_experiments
from repro.api.results import ExperimentResult
from repro.sim.cycle_model import LayerPerformance, ModelPerformance


class TestErrorPaths:
    def test_unknown_workload_lists_available(self):
        with pytest.raises(KeyError, match="alexnet"):
            Experiment().speedup_energy(["no-such-net"])

    def test_empty_model_list_rejected(self):
        with pytest.raises(ValueError, match="empty model list"):
            Experiment().speedup_energy([])
        with pytest.raises(ValueError, match="empty model list"):
            Experiment().run("fig2a", models=())

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="fig7"):
            Experiment().run("fig99")

    def test_unexpected_parameters_rejected(self):
        with pytest.raises(TypeError, match="unexpected parameters"):
            Experiment().run("table4", models=["alexnet"])
        with pytest.raises(TypeError, match="unexpected parameters"):
            Experiment().run("fig7", epochs=3)

    def test_unknown_config_preset_rejected(self):
        with pytest.raises(KeyError, match="paper-28nm"):
            Experiment(config="no-such-preset")

    def test_unknown_layer_rejected(self):
        with pytest.raises(KeyError, match="conv1"):
            Experiment().run_layer("alexnet", "no-such-layer")


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = [spec.id for spec in list_experiments()]
        assert ids == [
            "fig2a", "fig2b", "fig7", "table1", "table2", "table3", "table4",
            "program", "graph",
        ]

    def test_spec_lookup_is_case_insensitive(self):
        assert get_experiment_spec("FIG7").id == "fig7"


class TestUniformEntryPoints:
    def test_run_layer_and_run_model_dispatch(self):
        session = Experiment(seed=0)
        layer = session.run_layer("alexnet", 0, variant="hybrid")
        assert isinstance(layer, LayerPerformance)
        by_name = session.run_layer("alexnet", "conv1", variant="hybrid")
        assert by_name.layer.name == "conv1"
        model = session.run_model("alexnet", variant="base")
        assert isinstance(model, ModelPerformance)
        assert model.total_cycles > 0

    def test_run_variants_and_profile_cache(self):
        session = Experiment(seed=0)
        runs = session.run_variants("alexnet")
        assert set(runs) == {"base", "input", "weight", "hybrid"}
        assert session.profile("alexnet") is session.profile("alexnet")

    def test_execute_linear_matches_variant_configs(self):
        import numpy as np

        rng = np.random.default_rng(0)
        weights = rng.integers(-40, 40, size=(8, 64))
        inputs = rng.integers(0, 128, size=64)
        session = Experiment(seed=0)
        dense = session.execute_linear(weights, inputs, variant="base")
        hybrid = session.execute_linear(weights, inputs, variant="hybrid")
        # The dense path stores the exact weights.
        assert np.array_equal(dense.outputs, weights @ inputs)
        assert hybrid.cycles < dense.cycles

    def test_session_alias(self):
        assert Session is Experiment

    def test_model_casing_is_preserved_in_rows(self):
        rows = Experiment(seed=0).weight_sparsity(["AlexNet"])
        assert rows[0].model == "AlexNet"

    def test_with_config_shares_profile_cache(self):
        base = Experiment(seed=0)
        base.profile("alexnet")
        scaled = base.with_config("paper-28nm-8macro")
        assert scaled.config.num_macros == 8
        assert scaled.profile("alexnet") is base.profile("alexnet")

    def test_with_config_reprofiles_on_input_group_change(self):
        from repro.api import build_dbpim_config

        base = Experiment(seed=0)
        base.profile("alexnet")
        regrouped = base.with_config(build_dbpim_config(input_group=8))
        assert regrouped.input_group == 8
        assert regrouped.profile("alexnet") is not base.profile("alexnet")

    def test_nonpositive_input_group_rejected(self):
        with pytest.raises(ValueError, match="input_group"):
            Experiment(input_group=0)


class TestResultSchema:
    def test_results_round_trip_through_json(self):
        result = Experiment(seed=0).run("fig7", models=["alexnet"])
        assert ExperimentResult.from_json(result.to_json()) == result


class TestSeedThreading:
    def test_one_seed_moves_every_stage(self):
        rows_seed0 = Experiment(seed=0).weight_sparsity(["alexnet"])
        rows_seed0_again = Experiment(seed=0).weight_sparsity(["alexnet"])
        rows_seed1 = Experiment(seed=1).weight_sparsity(["alexnet"])
        assert rows_seed0 == rows_seed0_again
        assert rows_seed0 != rows_seed1

    def test_result_envelope_records_seed_and_config(self):
        result = Experiment(seed=3).run("table4")
        assert result.seed == 3
        assert result.config == "paper-28nm"
