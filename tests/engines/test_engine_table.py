"""Unit tests of the fixed engine table.

Names and order, capability flags, capability-aware resolution and the
error-message contracts (unknown names list the engines sorted).
"""

import importlib

import pytest

from repro.sim import cycle_model
from repro.sim.engines import (
    ENGINE_SPECS,
    ENGINES,
    EngineSpec,
    get_engine,
    resolve_cycle_model_engine,
)


class TestTable:
    def test_names_and_order(self):
        assert [spec.name for spec in ENGINE_SPECS] == [
            "scalar",
            "vectorized",
            "trace",
        ]

    def test_no_jit_tier(self):
        assert "jit" not in [spec.name for spec in ENGINE_SPECS]
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.engines.jit")

    def test_unknown_name_message_lists_the_table(self):
        with pytest.raises(ValueError) as excinfo:
            get_engine("jit")
        message = str(excinfo.value)
        assert message == (
            "unknown engine 'jit'; registered engines: "
            "['scalar', 'trace', 'vectorized']"
        )

    def test_capability_flags(self):
        assert get_engine("scalar").cycle_model is True
        assert get_engine("vectorized").trace_class is False
        trace = get_engine("trace")
        assert trace.cycle_model is False
        assert trace.trace_class is True

    def test_cycle_model_names_have_one_source(self):
        assert ENGINES == ("scalar", "vectorized")
        assert cycle_model.ENGINES is ENGINES

    def test_every_engine_needs_evaluate(self):
        with pytest.raises(TypeError, match="evaluate"):
            EngineSpec(name="dummy", title="no conformance hook")


class TestResolution:
    def test_unknown_engine_lists_the_names_sorted(self):
        with pytest.raises(ValueError, match="unknown engine") as exc:
            get_engine("warp")
        names = sorted(spec.name for spec in ENGINE_SPECS)
        assert str(names) in str(exc.value)

    def test_resolve_rejects_non_cycle_model_engines(self):
        with pytest.raises(ValueError, match="not a cycle-model engine"):
            resolve_cycle_model_engine("trace")

    def test_resolve_returns_the_spec(self):
        assert resolve_cycle_model_engine("scalar") is get_engine("scalar")

    def test_cycle_model_rejects_trace(self):
        with pytest.raises(ValueError, match="not a cycle-model engine"):
            cycle_model.CycleModel(engine="trace")
