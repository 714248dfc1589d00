"""First-class engine registry of the simulator stack.

Historically the execution engines -- the scalar per-layer reference, the
NumPy vectorized batch kernel and the trace-driven program simulator --
were identified by ad-hoc strings compared all over the stack
(``if engine == "scalar"`` in the cycle model, ``engine in ENGINES`` in the
sweep service, a pseudo-choice in the CLI).  Adding a backend meant finding
every comparison.  This package promotes the strings into a real registry:

* :class:`EngineSpec` -- one engine's identity and capabilities: whether it
  is selectable as a :class:`~repro.sim.cycle_model.CycleModel` engine,
  whether it evaluates batches of jobs in one dispatch, which sparsity
  variants it supports, whether the conformance harness compares it
  bitwise against the scalar reference or within
  :data:`~repro.sim.trace.TRACE_TOLERANCE` (trace-class engines), its
  cache-key contribution and its execution hooks;
* :func:`register_engine` -- the single hook a new backend calls; every
  consumer of engines -- the cycle model,
  :class:`~repro.api.experiment.Experiment`,
  :func:`~repro.api.sweep.run_sweep`, ``repro.serve`` and the CLI --
  resolves names through :func:`get_engine` instead of comparing strings,
  and the shared conformance suite in ``tests/engines/`` parametrizes over
  :func:`list_engines`, so a registered engine is automatically held to the
  cross-engine equivalence contract (see ``docs/testing.md``);
* :mod:`repro.sim.engines.conformance` -- the library half of that suite:
  evaluate any registered engine on any profiled workload and diff it
  against the scalar reference.

The three built-in engines (``scalar``, ``vectorized``, ``trace``) are
registered when this module imports.  Cache-key stability: an engine's
:attr:`~EngineSpec.cache_token` defaults to its name, and the token is what
:meth:`repro.api.sweep.SweepPoint.cache_key` hashes -- so the registry
refactor leaves every existing sweep/serve cache entry byte-for-byte valid
(pinned by ``tests/engines/test_cache_keys.py``), while a future backend
can rotate its own entries (e.g. ``cache_token="<name>-v2"``) without
touching anybody else's.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ...arch.config import SPARSITY_VARIANTS

__all__ = [
    "EngineSpec",
    "EngineOutcome",
    "register_engine",
    "unregister_engine",
    "temporary_engine",
    "get_engine",
    "resolve_cycle_model_engine",
    "list_engines",
    "engine_names",
    "cycle_model_engines",
]


@dataclass(frozen=True)
class EngineOutcome:
    """What one engine reports for one (profile, config, variant) case.

    The common currency of the conformance harness: every registered
    engine's :attr:`EngineSpec.evaluate` hook returns one of these, and the
    harness diffs it against the scalar reference's outcome.

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
    """Identity, capabilities and hooks of one registered engine.

    Attributes:
        name: unique engine name (the string users select).
        title: one-line human description (shown by ``repro list``).
        cycle_model: whether the engine is selectable as a
            :class:`~repro.sim.cycle_model.CycleModel` /
            :class:`~repro.api.experiment.Experiment` / sweep engine.
            ``False`` for engines with their own execution path (the trace
            simulator replays compiled programs instead of evaluating
            sparsity profiles).
        batch: whether the engine evaluates many (profile, variant, config)
            jobs in one dispatch (drives the batched fast paths of
            :meth:`~repro.sim.cycle_model.CycleModel.run_batch`).
        trace_class: conformance comparison mode -- ``False`` pins the
            engine *bitwise* to the scalar reference, ``True`` allows
            :data:`~repro.sim.trace.TRACE_TOLERANCE` relative error on the
            compute cycles (for engines that replay quantised compiled
            programs rather than evaluating the mapping equations).
        variants: the Fig. 7 sparsity variants the engine supports; the
            conformance suite exercises exactly these.
        cache_token: this engine's contribution to
            :meth:`repro.api.sweep.SweepPoint.cache_key`.  Defaults to the
            engine name (keeping historical cache keys byte-for-byte
            stable); bump it (e.g. ``"vectorized-v2"``) to invalidate
            only this engine's cached results.
        run_jobs: batched execution hook of cycle-model engines --
            ``run_jobs(model, jobs, base_configs, variant_configs)`` must
            return one ``ModelPerformance`` per job, in job order (see
            :meth:`~repro.sim.cycle_model.CycleModel.run_batch`).
            ``None`` for non-cycle-model engines.
        evaluate: conformance hook -- ``evaluate(profile, config, variant)``
            runs the engine end-to-end on one profiled workload and returns
            an :class:`EngineOutcome`.  Every registered engine must
            provide one; it is what the auto-applied suite calls.
    """

    name: str
    title: str
    cycle_model: bool = True
    batch: bool = True
    trace_class: bool = False
    variants: Tuple[str, ...] = SPARSITY_VARIANTS
    cache_token: str = ""
    run_jobs: Optional[Callable[..., List[Any]]] = None
    evaluate: Optional[Callable[..., EngineOutcome]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("engine names must be non-empty")
        if not self.cache_token:
            object.__setattr__(self, "cache_token", self.name)
        if not self.variants:
            raise ValueError(f"engine {self.name!r} supports no variants")
        if self.cycle_model and self.run_jobs is None:
            raise ValueError(
                f"cycle-model engine {self.name!r} needs a run_jobs hook"
            )
        if self.evaluate is None:
            raise ValueError(
                f"engine {self.name!r} needs an evaluate hook (the "
                "conformance harness calls it; see docs/testing.md)"
            )


#: The live registry, in registration order (insertion-ordered dict).
_REGISTRY: Dict[str, EngineSpec] = {}

def register_engine(spec: EngineSpec, replace: bool = False) -> EngineSpec:
    """Register an engine, making it resolvable everywhere by name.

    After registration the engine is selectable wherever an ``engine=``
    argument is accepted (subject to its capabilities), contributes its
    :attr:`~EngineSpec.cache_token` to sweep/serve cache keys, and is
    automatically parametrized into the cross-engine conformance suite of
    ``tests/engines/`` the next time it runs.

    Args:
        spec: the engine to register.
        replace: allow overwriting an existing registration (off by
            default so two backends cannot silently collide on a name).

    Returns:
        The registered spec (for decorator-style chaining).

    Raises:
        ValueError: when the name is already registered and ``replace`` is
            not set.
    """
    if spec.name in _REGISTRY and not replace:
        raise ValueError(
            f"engine {spec.name!r} is already registered; pass replace=True "
            "to overwrite it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_engine(name: str) -> None:
    """Remove an engine from the registry (primarily for tests).

    Raises:
        ValueError: when the engine is not registered.
    """
    if name not in _REGISTRY:
        raise ValueError(_unknown_engine_message(name))
    del _REGISTRY[name]


@contextmanager
def temporary_engine(spec: EngineSpec) -> Iterator[EngineSpec]:
    """Context manager registering an engine for the enclosed block only.

    The conformance self-tests use this to prove the harness catches a
    deliberately broken engine without leaking it into the registry.
    """
    register_engine(spec)
    try:
        yield spec
    finally:
        _REGISTRY.pop(spec.name, None)


def _unknown_engine_message(name: str) -> str:
    """The canonical unknown-engine error text, listing the registered
    names sorted."""
    return (
        f"unknown engine {name!r}; registered engines: "
        f"{sorted(_REGISTRY)}"
    )


def get_engine(name: str) -> EngineSpec:
    """Look an engine up by name.

    Raises:
        ValueError: for an unregistered name, listing the registered
            engines sorted.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(_unknown_engine_message(name)) from None


def resolve_cycle_model_engine(name: str) -> EngineSpec:
    """Resolve a name to a cycle-model-capable engine.

    The validation front door of :class:`~repro.sim.cycle_model.CycleModel`,
    :class:`~repro.api.experiment.Experiment`,
    :class:`~repro.api.sweep.SweepPoint` and ``repro.serve`` request
    validation.

    Raises:
        ValueError: for an unregistered name (listing registered engines
            sorted), or for a registered engine that is not selectable as a
            cycle-model engine (e.g. ``"trace"``).
    """
    spec = get_engine(name)
    if not spec.cycle_model:
        raise ValueError(
            f"engine {name!r} is not a cycle-model engine (cycle-model "
            f"engines: {sorted(cycle_model_engines())}); it has its own "
            "execution path -- see docs/testing.md"
        )
    return spec


def list_engines(cycle_model: Optional[bool] = None) -> List[EngineSpec]:
    """The registered engine specs, in registration order.

    Args:
        cycle_model: ``True`` to keep only cycle-model-capable engines,
            ``False`` for only the others, ``None`` (default) for all.
    """
    specs = list(_REGISTRY.values())
    if cycle_model is None:
        return specs
    return [spec for spec in specs if spec.cycle_model is cycle_model]


def engine_names(cycle_model: Optional[bool] = None) -> Tuple[str, ...]:
    """The registered engine names, in registration order (see
    :func:`list_engines` for the filter)."""
    return tuple(spec.name for spec in list_engines(cycle_model))


def cycle_model_engines() -> Tuple[str, ...]:
    """Names of the engines selectable as cycle-model engines."""
    return engine_names(cycle_model=True)


# ---------------------------------------------------------------------------
# Built-in engines
# ---------------------------------------------------------------------------
def _run_jobs_scalar(model, jobs, base_configs, variant_configs):
    """Reference execution: one per-layer scalar loop per job."""
    del variant_configs  # the scalar path applies the variant itself
    return [
        model._run_model_scalar(profile, variant, base_config=config)
        for (profile, variant), config in zip(jobs, base_configs)
    ]


def _run_jobs_vectorized(model, jobs, base_configs, variant_configs):
    """Batched execution: every job's layers in one NumPy array pass."""
    del base_configs  # the variant flags are already folded in
    if not jobs:
        return []
    from ..vectorized import simulate_jobs

    job_arrays = [model._arrays_for(profile) for profile, _ in jobs]
    activity = simulate_jobs(job_arrays, variant_configs, model.energy_model)
    return model._materialize_jobs(jobs, job_arrays, activity)


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


register_engine(
    EngineSpec(
        name="scalar",
        title="per-layer scalar reference (the pinned ground truth)",
        batch=False,
        run_jobs=_run_jobs_scalar,
        evaluate=_evaluate_cycle_model("scalar"),
    )
)
register_engine(
    EngineSpec(
        name="vectorized",
        title="NumPy batch kernel (default; bitwise-equal to scalar)",
        batch=True,
        run_jobs=_run_jobs_vectorized,
        evaluate=_evaluate_cycle_model("vectorized"),
    )
)
register_engine(
    EngineSpec(
        name="trace",
        title="trace-driven replay of compiled whole-model programs",
        cycle_model=False,
        batch=False,
        trace_class=True,
        evaluate=_evaluate_trace,
    )
)
