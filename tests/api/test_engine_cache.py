"""Engine selection across the façade: cache keys, sweeps and run_batch.

The cycle-model engine (scalar reference vs vectorized kernel) must be part
of every sweep point's cache identity -- mixing engines over one cache
directory must never serve one engine's entry to the other -- while the
results themselves stay bitwise identical.
"""

import pytest

from repro.api import Experiment, build_grid, run_sweep
from repro.api.sweep import SweepPoint
from repro.sim.cycle_model import SPARSITY_VARIANTS
from repro.store import PackedResultStore


class TestEngineCacheKey:
    def test_engine_is_part_of_the_cache_key(self):
        vectorized = SweepPoint(experiment="fig7", engine="vectorized")
        scalar = SweepPoint(experiment="fig7", engine="scalar")
        assert vectorized.cache_key() != scalar.cache_key()
        # Same engine, same point -> stable key.
        assert (
            SweepPoint(experiment="fig7", engine="scalar").cache_key()
            == scalar.cache_key()
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SweepPoint(experiment="fig7", engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            build_grid(experiments=("table4",), engine="warp")

    def test_build_grid_threads_engine_to_every_point(self):
        grid = build_grid(
            experiments=("fig7", "table4"), models=("alexnet",), engine="scalar"
        )
        assert grid and all(point.engine == "scalar" for point in grid)


class TestMixedEngineSweeps:
    def test_mixed_engines_share_a_cache_without_collisions(self, tmp_path):
        cache_dir = tmp_path / "cache"
        kwargs = dict(
            experiments=("fig7",), models=("alexnet",), cache_dir=cache_dir
        )
        scalar_cold = run_sweep(engine="scalar", **kwargs)
        assert scalar_cold.cache_misses == 1
        # The other engine must not hit the scalar entry ...
        vector_cold = run_sweep(engine="vectorized", **kwargs)
        assert vector_cold.cache_misses == 1 and vector_cold.cache_hits == 0
        # ... but both engines' own entries are warm afterwards,
        scalar_warm = run_sweep(engine="scalar", **kwargs)
        vector_warm = run_sweep(engine="vectorized", **kwargs)
        assert scalar_warm.cache_hits == 1 and scalar_warm.cache_misses == 0
        assert vector_warm.cache_hits == 1 and vector_warm.cache_misses == 0
        # ... and the engines agree bitwise on the results themselves.
        assert scalar_cold.results == vector_cold.results
        assert len(PackedResultStore(cache_dir)) == 2


class TestExperimentEngine:
    def test_engine_recorded_and_validated(self):
        assert Experiment().engine == "vectorized"
        assert "engine='scalar'" in repr(Experiment(engine="scalar"))
        with pytest.raises(ValueError, match="unknown engine"):
            Experiment(engine="warp")

    def test_with_config_preserves_engine(self):
        session = Experiment(engine="scalar")
        assert session.with_config("dense-baseline").engine == "scalar"

    def test_run_batch_grid_shape_and_values(self):
        session = Experiment()
        grid = session.run_batch(models=("alexnet",))
        assert set(grid) == {"alexnet"}
        assert set(grid["alexnet"]) == set(SPARSITY_VARIANTS)
        runs = session.run_variants("alexnet")
        for variant in SPARSITY_VARIANTS:
            assert (
                grid["alexnet"][variant].total_cycles
                == runs[variant].total_cycles
            )

    def test_run_batch_matches_scalar_session(self):
        vectorized = Experiment().run_batch(models=("mobilenetv2",))
        scalar = Experiment(engine="scalar").run_batch(models=("mobilenetv2",))
        for variant in SPARSITY_VARIANTS:
            v = vectorized["mobilenetv2"][variant]
            s = scalar["mobilenetv2"][variant]
            assert v.total_cycles == s.total_cycles
            assert v.total_energy_pj == s.total_energy_pj

    def test_run_batch_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            Experiment().run_batch(models=("alexnet",), variants=("bogus",))

    def test_run_batch_subset_of_variants(self):
        grid = Experiment().run_batch(
            models=("alexnet",), variants=("base", "hybrid")
        )
        assert list(grid["alexnet"]) == ["base", "hybrid"]
