"""The fixed engine table of the simulator stack.

Three engines execute the simulator -- the scalar per-layer reference, the
NumPy vectorized batch kernel and the trace-driven program simulator.  They
sit in one fixed table, :data:`ENGINE_SPECS`, that every consumer reads:

* :class:`EngineSpec` -- one engine's identity and capabilities: whether it
  is selectable as a :class:`~repro.sim.cycle_model.CycleModel` engine,
  whether the conformance harness compares it bitwise against the scalar
  reference or within :data:`~repro.sim.trace.TRACE_TOLERANCE`
  (trace-class engines), and its conformance hook;
* :func:`get_engine` / :func:`resolve_cycle_model_engine` -- the name
  lookups behind every ``engine=`` argument (the cycle model,
  :class:`~repro.api.experiment.Experiment`,
  :func:`~repro.api.sweep.run_sweep`, ``repro.serve`` and the CLI);
* :mod:`repro.sim.engines.conformance` -- the library half of the
  cross-engine conformance suite in ``tests/engines/``, which parametrizes
  over :data:`ENGINE_SPECS`.

Adding an engine means adding one entry to :data:`ENGINE_SPECS`; the
conformance suite then holds it to the cross-engine equivalence contract
(see ``docs/testing.md``).  An engine's name is what
:meth:`repro.api.sweep.SweepPoint.cache_key` hashes (pinned by
``tests/engines/test_cache_keys.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

__all__ = [
    "EngineSpec",
    "EngineOutcome",
    "ENGINE_SPECS",
    "ENGINES",
    "get_engine",
    "resolve_cycle_model_engine",
]


@dataclass(frozen=True)
class EngineOutcome:
    """What one engine reports for one (profile, config, variant) case.

    The common currency of the conformance harness: every engine's
    :attr:`EngineSpec.evaluate` hook returns one of these, and the harness
    diffs it against the scalar reference's outcome.

    Attributes:
        engine: name of the engine that produced the outcome.
        compute_cycles: total broadcast (compute) cycles of the workload --
            the quantity *every* engine class must agree on.
        performance: the full per-layer
            :class:`~repro.sim.cycle_model.ModelPerformance` when the
            engine produces one (analytical engines); ``None`` for engines
            that only report aggregate cycles (the trace simulator).  When
            present, the conformance harness compares it bitwise.
    """

    engine: str
    compute_cycles: float
    performance: Optional[Any] = None


@dataclass(frozen=True)
class EngineSpec:
    """Identity, capabilities and conformance hook of one engine.

    Attributes:
        name: unique engine name (the string users select; also the
            engine's contribution to sweep/serve cache keys).
        title: one-line human description (shown by ``repro list``).
        evaluate: conformance hook -- ``evaluate(profile, config, variant)``
            runs the engine end-to-end on one profiled workload and returns
            an :class:`EngineOutcome`.
        cycle_model: whether the engine is selectable as a
            :class:`~repro.sim.cycle_model.CycleModel` /
            :class:`~repro.api.experiment.Experiment` / sweep engine.
            ``False`` for engines with their own execution path (the trace
            simulator replays compiled programs instead of evaluating
            sparsity profiles).
        trace_class: conformance comparison mode -- ``False`` pins the
            engine *bitwise* to the scalar reference, ``True`` allows
            :data:`~repro.sim.trace.TRACE_TOLERANCE` relative error on the
            compute cycles (for engines that replay quantised compiled
            programs rather than evaluating the mapping equations).
    """

    name: str
    title: str
    evaluate: Callable[..., EngineOutcome]
    cycle_model: bool = True
    trace_class: bool = False


def _evaluate_cycle_model(name: str):
    """Build the conformance hook of one cycle-model engine."""

    def evaluate(profile, config, variant) -> EngineOutcome:
        """Run the engine on one profiled workload and wrap the outcome."""
        from ..cycle_model import CycleModel

        performance = CycleModel(config, engine=name).run_model(
            profile, variant
        )
        return EngineOutcome(
            engine=name,
            compute_cycles=performance.total_cycles,
            performance=performance,
        )

    return evaluate


def _evaluate_trace(profile, config, variant) -> EngineOutcome:
    """Conformance hook of the trace engine: compile, replay, report."""
    from ...compiler.pipeline import compile_model
    from ..trace import TraceSimulator

    compiled = compile_model(profile, config=config, variant=variant)
    trace = TraceSimulator(config).run(compiled)
    return EngineOutcome(engine="trace", compute_cycles=trace.compute_cycles)


#: Every engine, in listing order (``repro list``, the conformance suite).
ENGINE_SPECS: Tuple[EngineSpec, ...] = (
    EngineSpec(
        name="scalar",
        title="per-layer scalar reference (the pinned ground truth)",
        evaluate=_evaluate_cycle_model("scalar"),
    ),
    EngineSpec(
        name="vectorized",
        title="NumPy batch kernel (default; bitwise-equal to scalar)",
        evaluate=_evaluate_cycle_model("vectorized"),
    ),
    EngineSpec(
        name="trace",
        title="trace-driven replay of compiled whole-model programs",
        cycle_model=False,
        trace_class=True,
        evaluate=_evaluate_trace,
    ),
)

#: Names of the engines selectable as cycle-model engines, in table order.
ENGINES: Tuple[str, ...] = tuple(
    spec.name for spec in ENGINE_SPECS if spec.cycle_model
)


def get_engine(name: str) -> EngineSpec:
    """Look an engine up by name.

    Raises:
        ValueError: for an unknown name, listing the engine names sorted.
    """
    for spec in ENGINE_SPECS:
        if spec.name == name:
            return spec
    raise ValueError(
        f"unknown engine {name!r}; registered engines: "
        f"{sorted(spec.name for spec in ENGINE_SPECS)}"
    )


def resolve_cycle_model_engine(name: str) -> EngineSpec:
    """Resolve a name to a cycle-model-capable engine.

    The validation front door of :class:`~repro.sim.cycle_model.CycleModel`,
    :class:`~repro.api.experiment.Experiment`,
    :class:`~repro.api.sweep.SweepPoint`, ``repro.serve`` request
    validation and the CLI.

    Raises:
        ValueError: for an unknown name (listing the engines sorted), or
            for an engine that is not selectable as a cycle-model engine
            (e.g. ``"trace"``).
    """
    spec = get_engine(name)
    if not spec.cycle_model:
        raise ValueError(
            f"engine {name!r} is not a cycle-model engine (cycle-model "
            f"engines: {sorted(ENGINES)}); it has its own "
            "execution path -- see docs/testing.md"
        )
    return spec
