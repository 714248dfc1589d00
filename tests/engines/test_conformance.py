"""The cross-engine conformance suite.

Every engine of :data:`repro.sim.engines.ENGINE_SPECS` is parametrized
through the same contract: bitwise equality with the scalar reference for
analytical engines, :data:`~repro.sim.trace.TRACE_TOLERANCE` closeness for
trace-class ones -- across the seven stock workload graphs, a matrix of
hardware presets and every sparsity variant, plus seeded random
:mod:`repro.workloads.fuzz` graphs (a smoke subset always; the full
100-seed corpus behind the ``fuzz`` marker, see ``docs/testing.md``).

Adding an engine to that table enrolls it here -- the parametrization
iterates over it.
"""

import pytest

from repro.api.configs import get_config
from repro.arch.config import SPARSITY_VARIANTS
from repro.sim.engines import ENGINE_SPECS, EngineSpec
from repro.sim.engines.conformance import (
    REFERENCE_ENGINE,
    ConformanceError,
    assert_conformance,
    conformance_mismatches,
    reference_outcome,
    verify_engine,
)
from repro.workloads.fuzz import fuzz_workload
from repro.workloads.models import get_workload, list_workloads
from repro.workloads.profiles import profile_model

STOCK_WORKLOADS = tuple(list_workloads(family=None))
PRESETS = ("paper-28nm", "dense-baseline")
#: Fuzz seeds exercised on every tier-1 run (the smoke subset).
SMOKE_SEEDS = tuple(range(8))
#: The full pinned corpus (>= 100 seeds), selected with ``-m fuzz``.
CORPUS_SEEDS = tuple(range(100))


def engine_params():
    """One pytest param per engine of the table, id'd by name."""
    return [pytest.param(spec, id=spec.name) for spec in ENGINE_SPECS]


@pytest.fixture(scope="module")
def stock_profiles():
    """Sparsity profiles of all seven stock workload graphs."""
    return {
        name: profile_model(get_workload(name), seed=0)
        for name in STOCK_WORKLOADS
    }


@pytest.fixture(scope="module")
def reference_cache():
    """Memoized scalar-reference outcomes keyed by (workload, preset,
    variant) so the seven-workload matrix prices the reference once."""
    cache = {}

    def lookup(name, profile, preset, variant):
        key = (name, preset, variant)
        if key not in cache:
            cache[key] = reference_outcome(
                profile, get_config(preset), variant
            )
        return cache[key]

    return lookup


class TestStockWorkloadConformance:
    def test_matrix_is_nontrivial(self):
        assert len(STOCK_WORKLOADS) == 7
        assert len(ENGINE_SPECS) >= 3

    @pytest.mark.parametrize("engine", engine_params())
    @pytest.mark.parametrize("workload", STOCK_WORKLOADS)
    def test_engine_conforms_on_stock_graphs(
        self, engine, workload, stock_profiles, reference_cache
    ):
        """presets x variants, bitwise (or trace-tolerance)."""
        profile = stock_profiles[workload]
        checked = 0
        for preset in PRESETS:
            config = get_config(preset)
            for variant in SPARSITY_VARIANTS:
                reference = reference_cache(
                    workload, profile, preset, variant
                )
                assert_conformance(
                    engine,
                    profile,
                    config,
                    variant,
                    reference=reference,
                    case=f"{workload}/{preset}/{variant}",
                )
                checked += 1
        assert checked == len(PRESETS) * len(SPARSITY_VARIANTS)

    def test_verify_engine_counts_the_matrix(self, stock_profiles):
        profiles = [stock_profiles["alexnet"], stock_profiles["vit_tiny"]]
        spec = next(s for s in ENGINE_SPECS if s.name == "vectorized")
        checked = verify_engine(
            spec, profiles, [get_config("paper-28nm")]
        )
        assert checked == len(profiles) * len(SPARSITY_VARIANTS)


class TestFuzzConformance:
    @pytest.mark.parametrize("engine", engine_params())
    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_engine_conforms_on_fuzz_smoke(self, engine, seed):
        """The pinned smoke subset of the fuzz corpus (every run)."""
        if engine.name == REFERENCE_ENGINE:
            pytest.skip("the reference engine trivially conforms")
        profile = profile_model(fuzz_workload(seed), seed=0)
        config = get_config("paper-28nm")
        for variant in SPARSITY_VARIANTS:
            assert_conformance(
                engine,
                profile,
                config,
                variant,
                case=f"fuzz-{seed}/{variant}",
            )

    @pytest.mark.fuzz
    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_full_corpus_conformance(self, seed):
        """The full >=100-seed corpus (run with ``-m fuzz``)."""
        profile = profile_model(fuzz_workload(seed), seed=0)
        config = get_config("paper-28nm")
        for engine in ENGINE_SPECS:
            if engine.name == REFERENCE_ENGINE:
                continue
            for variant in SPARSITY_VARIANTS:
                assert_conformance(
                    engine,
                    profile,
                    config,
                    variant,
                    case=f"fuzz-{seed}/{variant}",
                )


class TestHarnessCatchesBrokenEngines:
    """The suite must fail engines that lie, not just pass ones that work."""

    def _broken_analytical_spec(self):
        def evaluate(profile, config, variant):
            from repro.sim.cycle_model import CycleModel
            from repro.sim.engines import EngineOutcome

            performance = CycleModel(config, engine="scalar").run_model(
                profile, variant
            )
            # Off-by-one on the aggregate: must be caught bitwise.
            return EngineOutcome(
                engine="broken",
                compute_cycles=performance.total_cycles + 1,
                performance=performance,
            )

        return EngineSpec(
            name="broken",
            title="deliberately wrong analytical engine",
            cycle_model=False,
            evaluate=evaluate,
        )

    def _broken_trace_spec(self):
        def evaluate(profile, config, variant):
            from repro.sim.engines import EngineOutcome

            reference = reference_outcome(profile, config, variant)
            # 5% off: far outside TRACE_TOLERANCE.
            return EngineOutcome(
                engine="broken-trace",
                compute_cycles=reference.compute_cycles * 1.05,
            )

        return EngineSpec(
            name="broken-trace",
            title="deliberately wrong trace-class engine",
            cycle_model=False,
            trace_class=True,
            evaluate=evaluate,
        )

    def test_analytical_divergence_is_caught(self, stock_profiles):
        profile = stock_profiles["alexnet"]
        config = get_config("paper-28nm")
        spec = self._broken_analytical_spec()
        with pytest.raises(ConformanceError, match="compute_cycles"):
            assert_conformance(spec, profile, config, "hybrid")

    def test_trace_class_divergence_is_caught(self, stock_profiles):
        profile = stock_profiles["alexnet"]
        config = get_config("paper-28nm")
        mismatches = conformance_mismatches(
            self._broken_trace_spec(), profile, config, "hybrid"
        )
        assert len(mismatches) == 1
        assert "rel err" in mismatches[0]

    def test_aggregate_only_engine_must_declare_trace_class(
        self, stock_profiles
    ):
        def evaluate(profile, config, variant):
            from repro.sim.engines import EngineOutcome

            reference = reference_outcome(profile, config, variant)
            return EngineOutcome(
                engine="aggregate", compute_cycles=reference.compute_cycles
            )

        spec = EngineSpec(
            name="aggregate",
            title="aggregate-only engine without trace_class",
            cycle_model=False,
            evaluate=evaluate,
        )
        mismatches = conformance_mismatches(
            spec, stock_profiles["alexnet"], get_config("paper-28nm"), "hybrid"
        )
        assert mismatches and "trace_class" in mismatches[0]
