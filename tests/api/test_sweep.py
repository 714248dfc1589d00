"""Tests for the parallel sweep runner and its on-disk result cache."""

import pytest

import repro.api.execution as execution_module
from repro.api import ExperimentResult, SweepResult, build_grid, run_sweep
from repro.api.sweep import SweepPoint, run_point
from repro.store import PackedResultStore


class TestGrid:
    def test_model_parameterised_experiments_split_per_model(self):
        grid = build_grid(
            experiments=("fig7", "table4"), models=("alexnet", "vgg19")
        )
        fig7_points = [p for p in grid if p.experiment == "fig7"]
        table4_points = [p for p in grid if p.experiment == "table4"]
        assert [p.params["models"] for p in fig7_points] == [["alexnet"], ["vgg19"]]
        assert len(table4_points) == 1 and table4_points[0].params == {}

    def test_table3_keeps_model_list_in_one_point(self):
        # Table 3 aggregates across models (max TOPS/W, joint utilization
        # dict), so splitting it per model would change the DB-PIM column.
        grid = build_grid(experiments=("table3",), models=("alexnet", "vgg19"))
        assert len(grid) == 1
        assert grid[0].params == {"models": ["alexnet", "vgg19"]}

    def test_table3_sweep_matches_direct_run(self):
        from repro.api import Experiment

        sweep = run_sweep(experiments=("table3",), models=("alexnet",))
        direct = Experiment(seed=0).run("table3", models=["alexnet"])
        assert sweep.results[0] == direct

    def test_grid_crosses_configs_and_seeds(self):
        grid = build_grid(
            experiments=("table4",),
            configs=("paper-28nm", "dense-baseline"),
            seeds=(0, 1),
        )
        assert len(grid) == 4
        assert {(p.config, p.seed) for p in grid} == {
            ("paper-28nm", 0), ("paper-28nm", 1),
            ("dense-baseline", 0), ("dense-baseline", 1),
        }

    def test_unknown_inputs_rejected_eagerly(self):
        with pytest.raises(KeyError):
            build_grid(experiments=("fig99",))
        with pytest.raises(KeyError):
            build_grid(experiments=("table4",), configs=("no-such-preset",))
        with pytest.raises(KeyError):
            build_grid(experiments=("fig7",), models=("no-such-net",))
        with pytest.raises(ValueError, match="empty model list"):
            build_grid(experiments=("fig7",), models=())

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(experiments="table4"), "'experiments' must be a list"),
            (dict(models="alexnet"), "'models' must be a list"),
            (dict(configs="paper-28nm"), "'configs' must be a list"),
            (dict(configs=[1]), "'configs' must be a list of strings"),
            (dict(seeds=["a"]), "'seeds' must be a list of integers"),
            (dict(seeds=0), "'seeds' must be a list of integers"),
            (dict(engine=None), "'engine' must be a string"),
            (
                dict(params_by_experiment={"table4": {"wat": 1}}),
                "'params_by_experiment': experiment 'table4' got "
                "unexpected parameters ['wat']",
            ),
            (
                dict(params_by_experiment={"table4": 1}),
                "'params_by_experiment' must map",
            ),
        ],
    )
    def test_mistyped_fields_rejected_naming_the_field(self, kwargs, message):
        kwargs = {"experiments": ("table4",), **kwargs}
        with pytest.raises(TypeError) as info:
            build_grid(**kwargs)
        assert message in str(info.value)

    def test_unknown_experiment_parameter_fails_before_running(
        self, monkeypatch
    ):
        import repro.api.sweep as sweep_module

        def never(*args, **kwargs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(sweep_module, "run_shard", never)
        with pytest.raises(TypeError, match="unexpected parameters"):
            run_sweep(
                transport="serial",
                experiments=("fig7",),
                models=("alexnet",),
                params_by_experiment={"fig7": {"wat": 1}},
            )

    def test_experiment_parameters_apply_case_insensitively(self):
        (point,) = build_grid(
            experiments=("fig2b",),
            models=("alexnet",),
            params_by_experiment={"FIG2B": {"group_sizes": [1, 8]}},
        )
        assert point.params["group_sizes"] == [1, 8]

    def test_cache_key_depends_on_config_contents_and_seed(self):
        point = SweepPoint(experiment="table4")
        assert point.cache_key() == SweepPoint(experiment="table4").cache_key()
        assert point.cache_key() != SweepPoint(experiment="table4", seed=1).cache_key()
        assert (
            point.cache_key()
            != SweepPoint(experiment="table4", config="dense-baseline").cache_key()
        )


class TestSweepExecution:
    def test_parallel_fig7_grid_with_cache(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        kwargs = dict(
            experiments=("fig7",),
            models=("alexnet", "mobilenetv2"),
            max_workers=2,
            cache_dir=cache_dir,
        )
        cold = run_sweep(**kwargs)
        assert len(cold) == 2
        assert cold.cache_hits == 0 and cold.cache_misses == 2
        assert len(PackedResultStore(cache_dir)) == 2

        # Warm re-run: every point must come from the cache without
        # executing any simulation -- instrument by making Experiment
        # construction (the only path into the simulator) explode.
        def _boom(*args, **kwargs):
            raise AssertionError("simulation executed on a warm cache")

        monkeypatch.setattr(execution_module, "Experiment", _boom)
        warm = run_sweep(**kwargs)
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert warm.results == cold.results

    def test_corrupt_cache_entry_treated_as_miss(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_sweep(experiments=("table4",), cache_dir=cache_dir)
        store = PackedResultStore(cache_dir)
        damaged = bytearray(store.data_path.read_bytes())
        damaged[-1] ^= 0xFF  # the only record's checksum now fails
        store.data_path.write_bytes(bytes(damaged))
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            recovered = run_sweep(experiments=("table4",), cache_dir=cache_dir)
        assert recovered.cache_misses == 1 and recovered.cache_hits == 0
        # A valid copy of the damaged record was appended.
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            warm = run_sweep(experiments=("table4",), cache_dir=cache_dir)
        assert warm.cache_hits == 1 and warm.cache_misses == 0

    def test_cache_miss_on_seed_change(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = run_sweep(
            experiments=("table4",), seeds=(0,), cache_dir=cache_dir
        )
        second = run_sweep(
            experiments=("table4",), seeds=(1,), cache_dir=cache_dir
        )
        assert first.cache_misses == 1
        assert second.cache_misses == 1  # different key, no false hit

    def test_run_point_fills_the_pack(self, tmp_path):
        point = SweepPoint(experiment="table4")
        cold, cold_hit = run_point(point, cache_dir=tmp_path)
        warm, warm_hit = run_point(point, cache_dir=tmp_path)
        assert (cold_hit, warm_hit) == (False, True)
        assert warm == cold
        assert [p.name for p in tmp_path.iterdir()] == ["pack.data"]

    def test_run_point_without_cache_dir(self):
        result, hit = run_point(SweepPoint(experiment="table1"))
        assert isinstance(result, ExperimentResult)
        assert not hit
        assert result.rows[-1].design == "DB-PIM (Ours)"

    def test_sweep_result_round_trip(self, tmp_path):
        sweep = run_sweep(experiments=("table1", "table4"), max_workers=2)
        assert isinstance(sweep, SweepResult)
        assert SweepResult.from_json(sweep.to_json()) == sweep
