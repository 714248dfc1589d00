"""Unit tests of the engine registry itself.

Registration semantics, capability-aware resolution, error-message
contracts (unknown names list the registered engines sorted) and the
``EngineSpec`` validation rules every backend author hits first.
"""

import importlib

import pytest

from repro.sim.engines import (
    EngineOutcome,
    EngineSpec,
    cycle_model_engines,
    engine_names,
    get_engine,
    list_engines,
    register_engine,
    resolve_cycle_model_engine,
    temporary_engine,
    unregister_engine,
)


def _dummy_spec(name="dummy", **overrides):
    def run_jobs(model, jobs, base_configs, variant_configs):
        raise AssertionError("not executed")

    def evaluate(profile, config, variant):
        return EngineOutcome(engine=name, compute_cycles=0.0)

    fields = dict(
        name=name,
        title="test dummy",
        run_jobs=run_jobs,
        evaluate=evaluate,
    )
    fields.update(overrides)
    return EngineSpec(**fields)


class TestBuiltins:
    def test_builtin_registration_order(self):
        assert engine_names() == ("scalar", "vectorized", "trace")

    def test_no_jit_tier(self):
        assert "jit" not in engine_names()
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.engines.jit")

    def test_unknown_name_message_lists_only_registered(self):
        with pytest.raises(ValueError) as excinfo:
            get_engine("jit")
        message = str(excinfo.value)
        assert message == (
            "unknown engine 'jit'; registered engines: "
            "['scalar', 'trace', 'vectorized']"
        )

    def test_capability_flags(self):
        assert get_engine("scalar").batch is False
        assert get_engine("vectorized").batch is True
        trace = get_engine("trace")
        assert trace.cycle_model is False
        assert trace.trace_class is True

    def test_cycle_model_filter(self):
        assert cycle_model_engines() == ("scalar", "vectorized")
        assert engine_names(cycle_model=False) == ("trace",)
        assert [s.name for s in list_engines(cycle_model=True)] == [
            "scalar",
            "vectorized",
        ]


class TestResolution:
    def test_unknown_engine_lists_registered_sorted(self):
        with pytest.raises(ValueError, match="unknown engine") as exc:
            get_engine("warp")
        assert str(sorted(engine_names())) in str(exc.value)

    def test_resolve_rejects_non_cycle_model_engines(self):
        with pytest.raises(ValueError, match="not a cycle-model engine"):
            resolve_cycle_model_engine("trace")

    def test_resolve_returns_the_spec(self):
        assert resolve_cycle_model_engine("scalar") is get_engine("scalar")


class TestRegistration:
    def test_duplicate_name_is_rejected(self):
        with temporary_engine(_dummy_spec()):
            with pytest.raises(ValueError, match="already registered"):
                register_engine(_dummy_spec())

    def test_replace_overwrites(self):
        with temporary_engine(_dummy_spec()):
            replacement = _dummy_spec(title="second dummy")
            register_engine(replacement, replace=True)
            assert get_engine("dummy").title == "second dummy"

    def test_unregister_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            unregister_engine("nope")

    def test_temporary_engine_cleans_up_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with temporary_engine(_dummy_spec()):
                assert "dummy" in engine_names()
                raise RuntimeError("boom")
        assert "dummy" not in engine_names()

    def test_registered_engine_is_selectable_by_cycle_model(self):
        from repro.sim.cycle_model import CycleModel
        from repro.api.configs import get_config

        with temporary_engine(_dummy_spec()):
            model = CycleModel(get_config("paper-28nm"), engine="dummy")
            assert model.engine == "dummy"
            assert model.engine_spec.title == "test dummy"


class TestSpecValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            _dummy_spec(name="")

    def test_cycle_model_engine_needs_run_jobs(self):
        with pytest.raises(ValueError, match="run_jobs"):
            _dummy_spec(run_jobs=None)

    def test_every_engine_needs_evaluate(self):
        with pytest.raises(ValueError, match="evaluate"):
            _dummy_spec(evaluate=None)

    def test_empty_variants_rejected(self):
        with pytest.raises(ValueError, match="no variants"):
            _dummy_spec(variants=())

    def test_cache_token_defaults_to_name(self):
        assert _dummy_spec().cache_token == "dummy"
        assert _dummy_spec(cache_token="dummy-v2").cache_token == "dummy-v2"

    def test_non_cycle_model_engine_needs_no_run_jobs(self):
        spec = _dummy_spec(cycle_model=False, batch=False, run_jobs=None)
        assert spec.run_jobs is None
