"""Tests for the shared execution core (``repro.api.execution``).

Pins what sweep shards, serve batches and ``repro worker`` rely on: a
mixed batch executed by :func:`execute_points` equals point-at-a-time
``Experiment(...).run`` byte for byte, a store turns a repeat call into
pure hits without building a session, and a failing point comes back as a
value while its merge bucket-mates still succeed.  A failed merged run
warns before the point-by-point re-run, and points that differ only in
inputs their experiment does not read share one run.  The session pool
keeps at most ``MAX_SESSION_GROUPS`` (seed, engine) groups, evicting the
least recently used.
"""

import pytest

from repro.api.execution import MAX_SESSION_GROUPS, SessionPool, execute_points
from repro.api.experiment import Experiment
from repro.api.results import ExperimentResult
from repro.api.sweep import SweepPoint
from repro.store import open_store


def _fig7(model_list, config="paper-28nm"):
    return SweepPoint(
        experiment="fig7", config=config, params={"models": list(model_list)}
    )


MIXED = (
    _fig7(["alexnet"]),
    _fig7(["alexnet"], config="dense-baseline"),  # multi-config fig7
    _fig7(["resnet18"]),
    _fig7(["mobilenetv2", "vgg19"]),  # a multi-model point
    SweepPoint(experiment="table4"),
    _fig7(["alexnet"]),  # duplicate key
)


def _solo(point):
    session = Experiment(config=point.config, seed=point.seed, engine=point.engine)
    return session.run(point.experiment, **point.params)


class TestExecutePoints:
    def test_mixed_batch_matches_point_at_a_time(self):
        execution = execute_points(MIXED, SessionPool())
        assert len(execution.results) == len(MIXED) - 1  # deduplicated
        assert not execution.hits and execution.merge_fallbacks == 0
        for point in MIXED:
            result = execution.results[point.cache_key()]
            assert result.to_json() == _solo(point).to_json()

    def test_second_call_with_store_is_all_hits(self, tmp_path):
        store = open_store(tmp_path)
        cold = execute_points(MIXED, SessionPool(), store)
        assert not cold.hits and cold.append_skipped == 0
        pool = SessionPool()
        warm = execute_points(MIXED, pool, open_store(tmp_path))
        assert warm.hits == frozenset(cold.results)
        assert len(pool) == 0  # no session was ever built
        for key, result in cold.results.items():
            assert warm.results[key].to_json() == result.to_json()

    def test_failing_point_is_a_value_and_bucket_mates_succeed(
        self, monkeypatch
    ):
        real_run = Experiment.run

        def fragile(self, experiment, **params):
            if "mobilenetv2" in (params.get("models") or ()):
                raise RuntimeError("injected fault")
            return real_run(self, experiment, **params)

        monkeypatch.setattr(Experiment, "run", fragile)
        points = [_fig7([name]) for name in ("alexnet", "mobilenetv2", "vgg19")]
        with pytest.warns(RuntimeWarning, match="injected fault"):
            execution = execute_points(points, SessionPool())
        assert execution.merge_fallbacks == 1
        failed = execution.results[points[1].cache_key()]
        assert isinstance(failed, RuntimeError)
        assert "injected fault" in str(failed)
        for point in (points[0], points[2]):
            result = execution.results[point.cache_key()]
            assert isinstance(result, ExperimentResult)
            assert result.to_json() == _solo(point).to_json()


    def test_failed_merge_warns_and_matches_an_unfailed_run(
        self, monkeypatch
    ):
        points = [_fig7([name]) for name in ("alexnet", "resnet18", "vgg19")]
        clean = execute_points(points, SessionPool())
        real_run = Experiment.run

        def solo_only(self, experiment, **params):
            if len(params.get("models") or ()) > 1:
                raise RuntimeError("injected merge fault")
            return real_run(self, experiment, **params)

        monkeypatch.setattr(Experiment, "run", solo_only)
        with pytest.warns(
            RuntimeWarning,
            match=r"merged 'fig7' run of 3 points failed "
            r"\(RuntimeError: injected merge fault\)",
        ):
            fallen = execute_points(points, SessionPool())
        assert clean.merge_fallbacks == 0 and fallen.merge_fallbacks == 1
        assert fallen.results.keys() == clean.results.keys()
        for key, result in clean.results.items():
            assert fallen.results[key].to_json() == result.to_json()

    def test_points_sharing_an_input_key_run_once_with_their_own_config(
        self, monkeypatch
    ):
        presets = ("paper-28nm", "dense-baseline", "paper-28nm-8macro")
        points = [
            SweepPoint(
                experiment=experiment, config=preset, params={"models": [model]}
            )
            for experiment in ("fig2b", "graph")
            for preset in presets
            for model in ("alexnet", "vgg19")
        ]
        real_run = Experiment.run
        calls = []

        def counting(self, experiment, **params):
            calls.append((experiment, self.config_name))
            return real_run(self, experiment, **params)

        monkeypatch.setattr(Experiment, "run", counting)
        execution = execute_points(points, SessionPool())
        # One merged run per experiment, not one per (experiment, preset).
        assert sorted(name for name, _ in calls) == ["fig2b", "graph"]
        monkeypatch.setattr(Experiment, "run", real_run)
        for point in points:
            result = execution.results[point.cache_key()]
            assert result.config == point.config
            assert result.to_json() == _solo(point).to_json()


class TestSessionPool:
    def test_same_seed_and_engine_sessions_share_profiles(self):
        pool = SessionPool()
        base = pool.get("paper-28nm", 0, "vectorized")
        clone = pool.get("paper-28nm-8macro", 0, "vectorized")
        other_seed = pool.get("paper-28nm", 1, "vectorized")
        assert pool.get("paper-28nm", 0, "vectorized") is base
        assert clone._profiles is base._profiles
        assert other_seed._profiles is not base._profiles
        assert len(pool) == 3

    def test_many_seeds_and_presets_clone_once_from_one_first_session(
        self, monkeypatch
    ):
        presets = (
            "paper-28nm",
            "dense-baseline",
            "weight-sparsity-only",
            "input-sparsity-only",
            "paper-28nm-8macro",
        )
        real_with_config = Experiment.with_config
        clones = []

        def counted(self, config):
            clones.append((self.seed, self.engine, config))
            return real_with_config(self, config)

        monkeypatch.setattr(Experiment, "with_config", counted)
        pool = SessionPool()
        seeds = range(MAX_SESSION_GROUPS // 2)  # x 2 engines: a full pool
        for _ in range(2):  # the second pass is all hits
            for seed in seeds:
                for engine in ("vectorized", "scalar"):
                    for preset in presets:
                        pool.get(preset, seed, engine)
        assert len(pool) == len(seeds) * 2 * len(presets)
        assert len(clones) == len(seeds) * 2 * (len(presets) - 1)
        assert len(set(clones)) == len(clones)
        for seed in seeds:
            for engine in ("vectorized", "scalar"):
                sessions = [pool.get(preset, seed, engine) for preset in presets]
                assert len({id(s._profiles) for s in sessions}) == 1
                assert all(s.seed == seed and s.engine == engine for s in sessions)
        assert pool.get(presets[0], 0, "vectorized")._profiles is not (
            pool.get(presets[0], 1, "vectorized")._profiles
        )


    def test_many_seeds_leave_at_most_the_cap_live(self):
        pool = SessionPool()
        for seed in range(300):
            session = pool.get("paper-28nm", seed, "vectorized")
            assert pool.get("paper-28nm-8macro", seed, "vectorized")._profiles is (
                session._profiles
            )
            assert len(pool) <= 2 * MAX_SESSION_GROUPS
        assert len(pool) == 2 * MAX_SESSION_GROUPS
        assert len(pool._groups) == MAX_SESSION_GROUPS
        assert [seed for seed, _ in pool._groups] == list(
            range(300 - MAX_SESSION_GROUPS, 300)
        )

    def test_least_recently_used_group_is_evicted_first(self):
        pool = SessionPool()
        first = [pool.get("paper-28nm", seed, "scalar") for seed in range(3)]
        pool.get("dense-baseline", 0, "scalar")  # seed 0 is used again
        for seed in range(3, MAX_SESSION_GROUPS + 1):
            pool.get("paper-28nm", seed, "scalar")
        assert pool.get("paper-28nm", 0, "scalar") is first[0]
        assert pool.get("paper-28nm", 2, "scalar") is first[2]
        assert pool.get("paper-28nm", 1, "scalar") is not first[1]  # evicted

    def test_evicted_seed_returns_byte_identical_rows(self):
        pool = SessionPool()
        before = pool.get("paper-28nm", 7, "vectorized").run(
            "fig7", models=["alexnet"]
        )
        for seed in range(100, 100 + MAX_SESSION_GROUPS):
            pool.get("paper-28nm", seed, "vectorized")
        again = pool.get("paper-28nm", 7, "vectorized")
        assert again._profiles == {}  # a rebuilt session
        after = again.run("fig7", models=["alexnet"])
        assert after.to_json() == before.to_json()

    def test_one_hot_group_is_never_evicted(self):
        # The serve-mix shape: one (seed, engine) over every preset, kept
        # warm while other seeds come and go.
        presets = (
            "paper-28nm",
            "dense-baseline",
            "weight-sparsity-only",
            "input-sparsity-only",
            "paper-28nm-8macro",
        )
        pool = SessionPool()
        hot = {preset: pool.get(preset, 0, "vectorized") for preset in presets}
        for seed in range(1, 300):
            pool.get("paper-28nm", seed, "vectorized")
            preset = presets[seed % len(presets)]
            assert pool.get(preset, 0, "vectorized") is hot[preset]
        for _ in range(100):
            for preset in presets:
                assert pool.get(preset, 0, "vectorized") is hot[preset]


class TestRunShard:
    def test_whole_shard_runs_then_first_failure_in_grid_order_raises(
        self, monkeypatch
    ):
        # run_shard executes every point of the shard through the core
        # (failures come back as values) and only then raises for the
        # first failed point in grid order.
        from repro.api.sweep import (
            ShardPlanner,
            SweepPointError,
            build_grid,
            run_shard,
        )

        real_run = Experiment.run
        attempted = []

        def fragile(self, experiment, **params):
            models = params.get("models") or ()
            attempted.append(tuple(models))
            if {"mobilenetv2", "vgg19"} & set(models):
                raise RuntimeError("injected fault")
            return real_run(self, experiment, **params)

        monkeypatch.setattr(Experiment, "run", fragile)
        grid = build_grid(
            experiments=("fig7",), models=("alexnet", "mobilenetv2", "vgg19")
        )
        (shard,) = ShardPlanner(shards=1).plan(grid).shards
        with pytest.raises(SweepPointError) as info, pytest.warns(
            RuntimeWarning, match="injected fault"
        ):
            run_shard(shard)
        assert info.value.point.params["models"] == ["mobilenetv2"]
        assert isinstance(info.value.__cause__, RuntimeError)
        assert ("vgg19",) in attempted  # the later point still ran
