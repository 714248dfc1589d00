"""Tests for the sharded sweep service: planning, transports, resume.

The sweep cache / grid basics are covered by ``test_sweep.py``; this module
pins the service layer added on top -- deterministic shard planning keyed by
cache state, process/thread/serial result equality, resume from the result
store after a simulated interruption (on every transport:
``tests/dist/test_resume.py``), per-point failure attribution and
cache-corruption recovery.
"""

import pytest

import repro.api.execution as execution_module
import repro.api.sweep as sweep_module
from repro.api import (
    Experiment,
    ExperimentResult,
    ShardPlanner,
    SweepPointError,
    SweepResult,
    build_dbpim_config,
    build_grid,
    run_shard,
    run_sweep,
)
from repro.api.sweep import SweepPoint, run_point
from repro.workloads import list_workloads

PAPER_MODELS = tuple(list_workloads())

GRID_KWARGS = dict(experiments=("fig7", "table4"), models=("alexnet", "mobilenetv2"))


class TestShardPlanner:
    def test_plan_is_deterministic(self, tmp_path):
        grid = build_grid(**GRID_KWARGS)
        planner = ShardPlanner(cache_dir=tmp_path, shards=2)
        assert planner.plan(grid) == planner.plan(grid)

    def test_cold_points_grouped_by_seed_and_engine(self):
        grid = build_grid(
            experiments=("table4",),
            configs=("paper-28nm", "dense-baseline"),
            seeds=(0, 1),
        )
        plan = ShardPlanner(shards=2).plan(grid)
        for shard in plan.shards:
            keys = {(p.seed, p.engine) for p in shard.points}
            assert len(keys) == 1  # one (seed, engine) worker group per shard
        # Configs are deliberately mixed within a shard so points differing
        # only in configuration can fuse onto one grid pass; every distinct
        # config must ship with the shard, in first-appearance order.
        mixed = [s for s in plan.shards if len({p.config for p in s.points}) > 1]
        assert mixed
        for shard in mixed:
            shipped = [name for name, _ in shard.configs]
            seen = list(dict.fromkeys(p.config for p in shard.points))
            assert shipped == seen

    def test_shard_count_respects_target(self):
        grid = build_grid(experiments=("fig7",))  # five single-model points
        plan = ShardPlanner(shards=2).plan(grid)
        assert 1 <= len(plan.shards) <= 2
        assert sorted(i for s in plan.shards for i in s.indices) == list(
            range(len(grid))
        )

    def test_warm_and_cold_points_split_by_cache_state(self, tmp_path):
        grid = build_grid(**GRID_KWARGS)
        # Prime the cache with exactly one point.
        run_point(grid[0], cache_dir=tmp_path)
        plan = ShardPlanner(cache_dir=tmp_path, shards=4).plan(grid)
        assert plan.warm_points == 1 and plan.cold_points == len(grid) - 1
        # Warm points are restored by the coordinator, never sharded.
        assert plan.warm == (0,)
        assert sorted(i for s in plan.shards for i in s.indices) == list(
            range(1, len(grid))
        )

    def test_shards_ship_resolved_configs(self):
        grid = build_grid(experiments=("table4",), configs=("dense-baseline",))
        plan = ShardPlanner().plan(grid)
        ((name, config),) = plan.shards[0].configs
        assert name == "dense-baseline" and not config.weight_sparsity

    def test_cold_points_of_one_model_share_a_shard(self, monkeypatch):
        # Every cold point of one (model, seed, engine) lands in one shard,
        # whose with_config sessions share one profile cache: the serial
        # fig7 x 5 models x 2 presets sweep profiles each model once.
        import repro.api.experiment as experiment_module

        kwargs = dict(
            experiments=("fig7",),
            models=PAPER_MODELS,
            configs=("paper-28nm", "paper-28nm-8macro"),
        )
        grid = build_grid(**kwargs)
        planner = ShardPlanner(max_workers=2)
        plan = planner.plan(grid)
        assert plan == planner.plan(grid)
        assert [s.indices for s in plan.shards] == [
            (0, 1, 5, 6), (2, 3, 7, 8), (4, 9)
        ]
        for shard in plan.shards:
            models = {p.params["models"][0] for p in shard.points}
            owners = {
                m for s in plan.shards for p in s.points
                if s is not shard for m in p.params["models"]
            }
            assert not models & owners

        calls = []
        original = experiment_module.profile_model

        def counting(workload, *args, **kw):
            calls.append(workload.name)
            return original(workload, *args, **kw)

        monkeypatch.setattr(experiment_module, "profile_model", counting)
        swept = run_sweep(transport="serial", max_workers=2, **kwargs)
        assert sorted(calls) == sorted(PAPER_MODELS)
        point_at_a_time = SweepResult(
            results=tuple(run_point(point)[0] for point in grid),
            cache_misses=len(grid),
        )
        assert swept.to_json() == point_at_a_time.to_json()

    def test_model_free_points_chunk_in_grid_order(self):
        # table1/table4 points take no model: they split across shards in
        # plain grid-order chunks of ceil(total / shards) points.
        grid = build_grid(
            experiments=("table1", "table4"),
            configs=("paper-28nm", "dense-baseline", "paper-28nm-8macro"),
            seeds=(0,),
        )
        assert len(grid) == 6
        plan = ShardPlanner(shards=4).plan(grid)
        assert [s.indices for s in plan.shards] == [(0, 1), (2, 3), (4, 5)]

    def test_non_profiling_single_model_points_chunk_in_grid_order(self):
        # table2 trains networks and never profiles: one-model points with
        # distinct inputs keep splitting across shards in grid order.
        grid = build_grid(
            experiments=("table2",),
            models=("alexnet", "vgg19", "resnet18"),
            configs=("paper-28nm",),
            seeds=(0,),
        )
        plan = ShardPlanner(shards=3).plan(grid)
        assert [s.indices for s in plan.shards] == [(0,), (1,), (2,)]

    @pytest.mark.parametrize("shards", [1, 4])
    def test_five_preset_config_free_sweep_runs_each_input_once(
        self, monkeypatch, shards
    ):
        # fig2a/fig2b/graph do not read the configuration: a cold sweep
        # over five presets computes each input once -- a fifth of the
        # one run per (preset, experiment) that a single shard needs when
        # results are not shared -- and returns the same bytes.
        presets = (
            "paper-28nm", "dense-baseline", "weight-sparsity-only",
            "input-sparsity-only", "paper-28nm-8macro",
        )
        kwargs = dict(experiments=("fig2a", "fig2b", "graph"), configs=presets)
        grid = build_grid(**kwargs)
        real_run = Experiment.run
        calls = []

        def counting(self, experiment, **params):
            calls.append((experiment, self.config_name))
            return real_run(self, experiment, **params)

        monkeypatch.setattr(Experiment, "run", counting)
        swept = run_sweep(transport="serial", shards=shards, **kwargs)
        if shards == 1:
            unshared = {(point.config, point.experiment) for point in grid}
            assert len(calls) * 5 == len(unshared) == 15
        else:
            assert len(calls) <= len(kwargs["experiments"]) + shards - 1
        monkeypatch.setattr(Experiment, "run", real_run)
        point_at_a_time = SweepResult(
            results=tuple(run_point(point)[0] for point in grid),
            cache_misses=len(grid),
        )
        assert swept.to_json() == point_at_a_time.to_json()

    def test_points_sharing_an_input_key_bundle_into_one_shard(self):
        # table2 does not read the hardware configuration: its alexnet
        # points on three presets are one computation, planned together.
        grid = build_grid(
            experiments=("table2",),
            models=("alexnet",),
            configs=("paper-28nm", "dense-baseline", "paper-28nm-8macro"),
            seeds=(0,),
        )
        assert len({point.input_key() for point in grid}) == 1
        plan = ShardPlanner(shards=3).plan(grid)
        assert [s.indices for s in plan.shards] == [(0, 1, 2)]

    def test_profiling_experiments_are_exactly_those_that_profile(
        self, monkeypatch
    ):
        # The planner bundles a model's cold points only for experiments
        # whose runner profiles it; pin that set against the runners.
        import repro.api.experiment as experiment_module
        from repro.api.experiment import EXPERIMENTS

        calls = []
        original = experiment_module.profile_model

        def counting(workload, *args, **kw):
            calls.append(workload.name)
            return original(workload, *args, **kw)

        monkeypatch.setattr(experiment_module, "profile_model", counting)
        profiling = set()
        for spec in EXPERIMENTS.values():
            if not spec.takes_models or spec.heavy:
                continue
            calls.clear()
            Experiment().run(spec.id, models=["alexnet"])
            if calls:
                profiling.add(spec.id)
        assert profiling == set(sweep_module._PROFILING_EXPERIMENTS)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            ShardPlanner(shards=0)
        with pytest.raises(ValueError, match="max_workers"):
            ShardPlanner(max_workers=-1)


class TestExecutorEquality:
    def test_all_backends_produce_identical_results(self):
        serial = run_sweep(transport="serial", **GRID_KWARGS)
        thread = run_sweep(transport="thread", max_workers=2, **GRID_KWARGS)
        process = run_sweep(
            transport="process", max_workers=2, shards=3, **GRID_KWARGS
        )
        assert serial.results == thread.results == process.results
        assert (
            serial.cache_misses
            == thread.cache_misses
            == process.cache_misses
            == len(serial.results)
        )

    def test_cross_config_fused_shard_matches_point_at_a_time(self):
        # Points differing only in configuration land on one shard, whose
        # per-config sessions share one profile cache and each run one
        # merged call; the split-back results must be byte-identical to
        # executing every point individually on its own session.
        grid = build_grid(
            experiments=("fig7",),
            models=("alexnet",),
            configs=(
                "paper-28nm",
                "dense-baseline",
                "weight-sparsity-only",
                "input-sparsity-only",
            ),
            seeds=(0,),
        )
        plan = ShardPlanner(shards=1).plan(grid)
        assert len(plan.shards) == 1  # one (seed, engine) group
        outcomes = run_shard(plan.shards[0])
        reference = tuple(run_point(p)[0] for p in grid)
        assert tuple(r for _, r, _ in sorted(outcomes)) == reference

    def test_merged_shard_execution_matches_point_at_a_time(self):
        # One shard holding several single-model fig7 points merges them
        # into one batched run; the split results must be identical to
        # executing every point individually.
        sweep = run_sweep(transport="serial", shards=1, **GRID_KWARGS)
        reference = tuple(run_point(p)[0] for p in build_grid(**GRID_KWARGS))
        assert sweep.results == reference

    def test_process_backend_uses_and_fills_cache(self, tmp_path):
        cold = run_sweep(
            transport="process", max_workers=2, cache_dir=tmp_path, **GRID_KWARGS
        )
        assert cold.cache_hits == 0 and cold.cache_misses == len(cold.results)
        warm = run_sweep(
            transport="process", max_workers=2, cache_dir=tmp_path, **GRID_KWARGS
        )
        assert warm.cache_hits == len(warm.results) and warm.cache_misses == 0
        # A fully warm re-run executes no shard: the coordinator restores it.
        assert warm.stats.shards == 0 and cold.stats.shards > 0
        assert warm.results == cold.results

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_store_is_written_by_the_coordinator(
        self, tmp_path, monkeypatch, transport
    ):
        # Workers are store-less on every transport: the coordinator packs
        # exactly one record per cold point, and a re-run -- with or
        # without resume -- is all hits with the same bytes.
        import threading

        from repro.api.sweep import cache_keys_for_grid
        from repro.store import DATA_FILENAME, PackedResultStore

        writers = []
        real_append = PackedResultStore.append_many

        def recording(self, entries):
            writers.append((threading.get_ident(), len(entries)))
            return real_append(self, entries)

        monkeypatch.setattr(PackedResultStore, "append_many", recording)
        cache = tmp_path / "cache"
        kwargs = dict(
            transport=transport, max_workers=2, shards=3, cache_dir=cache,
            **GRID_KWARGS,
        )
        cold = run_sweep(**kwargs)
        assert cold.cache_misses == len(cold.results)
        keys = cache_keys_for_grid(build_grid(**GRID_KWARGS))
        assert [p.name for p in cache.iterdir()] == [DATA_FILENAME]
        assert len(PackedResultStore(cache)) == len(keys)
        assert PackedResultStore(cache).probe(keys) == frozenset(keys)
        assert {ident for ident, _ in writers} == {threading.get_ident()}
        assert sum(count for _, count in writers) == len(cold.results)
        reference = [r.to_json() for r in cold.results]

        warm = run_sweep(**kwargs)
        assert warm.cache_hits == len(warm.results)
        assert [r.to_json() for r in warm.results] == reference

        resumed = run_sweep(resume=True, **kwargs)
        assert [r.to_json() for r in resumed.results] == reference
        assert resumed.cache_hits == len(reference)
        assert resumed.stats.shards == 0

    def test_process_backend_ships_user_registered_configs(self, tmp_path):
        # A session on an unregistered config: the preset only exists in
        # this process, so process workers must receive it with the shard.
        session = Experiment(config=build_dbpim_config(num_macros=2))
        sweep = session.run_sweep(
            experiments=("table4",), transport="process", max_workers=2
        )
        assert len(sweep) == 1
        assert sweep.results[0].config == session.config_name

    def test_stats_attached_but_not_serialised(self):
        sweep = run_sweep(transport="serial", experiments=("table4",))
        assert sweep.stats is not None
        assert sweep.stats.executor == "serial"
        assert sweep.stats.cold_points == 1
        assert sweep.stats.elapsed_s > 0
        assert "stats" not in sweep.to_dict()
        rebuilt = SweepResult.from_json(sweep.to_json())
        assert rebuilt.stats is None and rebuilt == sweep


class TestFailureAttribution:
    def test_failing_point_identified_and_chained(self, monkeypatch):
        real_experiment = execution_module.Experiment

        class Exploding(real_experiment):
            def run(self, experiment, **params):
                # Fires on the merged batch too, so the shard's per-point
                # fallback must localise the failure to the single point.
                if "mobilenetv2" in (params.get("models") or []):
                    raise RuntimeError("injected fault")
                return super().run(experiment, **params)

        monkeypatch.setattr(execution_module, "Experiment", Exploding)
        with pytest.raises(SweepPointError) as info:
            run_sweep(transport="thread", max_workers=2, **GRID_KWARGS)
        message = str(info.value)
        assert "mobilenetv2" in message and "fig7" in message
        assert "injected fault" in message
        assert info.value.point is not None
        assert info.value.point.params["models"] == ["mobilenetv2"]

    def test_error_is_picklable_with_point(self):
        import pickle

        point = SweepPoint(experiment="fig7", params={"models": ["alexnet"]})
        error = SweepPointError("boom", point)
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == "boom" and clone.point == point


def _counting_experiment(executed):
    """An ``Experiment`` recording ``(experiment, models)`` of every run."""
    real_experiment = execution_module.Experiment

    class Counting(real_experiment):
        def run(self, experiment, **params):
            executed.append((experiment, params.get("models")))
            return super().run(experiment, **params)

    return Counting


class TestResume:
    """A sweep resumes from its packed store; ``journal`` names the store
    when there is no ``cache_dir``."""

    def test_journal_path_names_the_store(self, tmp_path):
        from repro.api.sweep import cache_keys_for_grid
        from repro.store import DATA_FILENAME, PackedResultStore

        journal = tmp_path / "journal"
        sweep = run_sweep(transport="serial", journal=journal, **GRID_KWARGS)
        assert sweep.cache_misses == len(sweep.results)
        assert [p.name for p in journal.iterdir()] == [DATA_FILENAME]
        keys = cache_keys_for_grid(build_grid(**GRID_KWARGS))
        assert PackedResultStore(journal).probe(keys) == frozenset(keys)
        assert [p.name for p in tmp_path.iterdir()] == ["journal"]

    def test_resume_recomputes_only_unstored_points(
        self, tmp_path, monkeypatch
    ):
        journal = tmp_path / "journal"
        full = run_sweep(transport="serial", **GRID_KWARGS)
        # The store of a sweep killed after its first shard: one point.
        first = build_grid(**GRID_KWARGS)[0]
        run_point(first, cache_dir=journal)
        executed = []
        monkeypatch.setattr(
            execution_module, "Experiment", _counting_experiment(executed)
        )
        resumed = run_sweep(
            transport="serial", journal=journal, resume=True, **GRID_KWARGS
        )
        assert resumed.results == full.results
        assert [r.to_json() for r in resumed.results] == [
            r.to_json() for r in full.results
        ]
        assert executed == [("fig7", ["mobilenetv2"]), ("table4", None)]
        # Restored points count as hits: the counters report this
        # invocation's work.
        assert resumed.cache_hits == 1
        assert resumed.cache_misses == len(full.results) - 1
        # The store now covers the whole grid; a further run computes
        # nothing at all.
        executed.clear()
        again = run_sweep(
            transport="serial", journal=journal, resume=True, **GRID_KWARGS
        )
        assert again.results == full.results and executed == []
        assert again.cache_hits == len(full.results)

    def test_resume_is_accepted_and_changes_nothing(self, tmp_path):
        cache = tmp_path / "cache"
        cold = run_sweep(transport="serial", cache_dir=cache, **GRID_KWARGS)
        warm = run_sweep(transport="serial", cache_dir=cache, **GRID_KWARGS)
        resumed = run_sweep(
            transport="serial", cache_dir=cache, resume=True, **GRID_KWARGS
        )
        assert resumed.to_json() == warm.to_json()
        assert resumed.results == cold.results

    def test_fresh_run_reuses_the_journal_store(self, tmp_path):
        journal = tmp_path / "journal"
        run_sweep(transport="serial", journal=journal, **GRID_KWARGS)
        again = run_sweep(
            transport="serial", journal=journal, experiments=("table4",)
        )
        assert again.cache_hits == 1 and again.cache_misses == 0

    @pytest.mark.parametrize(
        "store", [{}, {"cache_dir": None, "journal": None}]
    )
    def test_resume_requires_a_store(self, store):
        with pytest.raises(ValueError, match="needs a store to resume"):
            run_sweep(experiments=("table4",), resume=True, **store)


class TestCacheRobustness:
    def test_corrupt_entry_warns_and_recovers(self, tmp_path):
        from repro.store import DATA_FILENAME

        run_sweep(experiments=("table4",), cache_dir=tmp_path)
        data = tmp_path / DATA_FILENAME
        damaged = bytearray(data.read_bytes())
        damaged[-1] ^= 0xFF  # the last payload byte; its checksum now fails
        data.write_bytes(bytes(damaged))
        with pytest.warns(RuntimeWarning, match="damaged pack record"):
            recovered = run_sweep(experiments=("table4",), cache_dir=tmp_path)
        assert recovered.cache_misses == 1
        with pytest.warns(RuntimeWarning, match="damaged pack record"):
            warm = run_sweep(experiments=("table4",), cache_dir=tmp_path)
        assert warm.cache_hits == 1
        assert warm.results == recovered.results

    def test_save_leaves_no_temp_files(self, tmp_path):
        result, _ = run_point(SweepPoint(experiment="table4"))
        target = tmp_path / "entry.json"
        result.save(target)
        result.save(target)  # overwrite is atomic too
        assert ExperimentResult.load(target) == result
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


class TestSessionRunSweep:
    def test_session_pins_config_seed_engine(self, tmp_path):
        session = Experiment(config="dense-baseline", seed=3, engine="scalar")
        sweep = session.run_sweep(
            experiments=("fig7",), models=("alexnet",), cache_dir=tmp_path
        )
        (result,) = sweep.results
        assert result.config == "dense-baseline" and result.seed == 3
        direct = session.run("fig7", models=["alexnet"])
        assert result == direct

    @pytest.mark.parametrize(
        "removed", [{"executor": "serial"}, {"cache_backend": "packed"}]
    )
    def test_session_sweep_has_no_backend_knobs(self, removed):
        with pytest.raises(TypeError, match=next(iter(removed))):
            Experiment().run_sweep(experiments=("table4",), **removed)

    def test_run_shard_overrides_divergent_local_preset(self):
        # A spawn-started worker resolves preset names against a fresh
        # registry; if the parent overrode a name, the shipped config must
        # win over the local contents, not silently lose to them.
        from repro.api import register_config

        shipped = build_dbpim_config(num_macros=2)
        register_config("svc-divergent", shipped, overwrite=True)
        grid = build_grid(experiments=("table4",), configs=("svc-divergent",))
        plan = ShardPlanner().plan(grid)  # ships the resolved `shipped`
        # Simulate the worker's divergent registry state.
        register_config(
            "svc-divergent", build_dbpim_config(num_macros=8), overwrite=True
        )
        ((_, result, _),) = run_shard(plan.shards[0])
        expected = Experiment(config=shipped).run("table4")
        assert result.rows == expected.rows

    def test_run_shard_entrypoint_sorts_by_grid_index(self, tmp_path):
        grid = build_grid(**GRID_KWARGS)
        plan = ShardPlanner(shards=1).plan(grid)
        (shard,) = [s for s in plan.shards if len(s) > 1]
        outcomes = run_shard(shard)
        assert [index for index, _, _ in outcomes] == sorted(shard.indices)
        assert all(hit is False for _, _, hit in outcomes)


class TestSharedStore:
    """Sweeps sharing one store: the store's writer lock keeps appends
    whole, and a contended append is skipped, never a failed sweep."""

    def test_sweep_completes_while_another_writer_holds_the_store(
        self, tmp_path
    ):
        from repro.store import PackedResultStore

        journal = tmp_path / "journal"
        reference = run_sweep(transport="serial", **GRID_KWARGS)
        holder = PackedResultStore(journal)
        holder._acquire_lock()
        try:
            with pytest.warns(RuntimeWarning, match="skipping packed-store"):
                sweep = run_sweep(
                    transport="serial", journal=journal, **GRID_KWARGS
                )
        finally:
            holder._release_lock()
        assert sweep.results == reference.results
        assert len(PackedResultStore(journal)) == 0  # nothing interleaved

    def test_store_lock_is_released_even_on_failure(
        self, tmp_path, monkeypatch
    ):
        from repro.store import LOCK_FILENAME

        journal = tmp_path / "journal"
        real_experiment = execution_module.Experiment

        class Exploding(real_experiment):
            def run(self, experiment, **params):
                if "mobilenetv2" in (params.get("models") or []):
                    raise RuntimeError("injected fault")
                return super().run(experiment, **params)

        monkeypatch.setattr(execution_module, "Experiment", Exploding)
        with pytest.raises(SweepPointError):
            run_sweep(
                transport="serial", journal=journal, shards=3, **GRID_KWARGS
            )
        assert journal.exists()  # the first shard was stored
        assert not (journal / LOCK_FILENAME).exists()
