"""Cross-engine conformance harness: one contract, every engine.

The library half of the equivalence suite in ``tests/engines/``: evaluate
any engine of :data:`~repro.sim.engines.ENGINE_SPECS` (or any
:class:`~repro.sim.engines.EngineSpec`) on any profiled workload and diff
its :class:`~repro.sim.engines.EngineOutcome` against the scalar reference.
The contract, per (engine, workload, preset, variant) case:

* **analytical engines** (``trace_class=False``) must be *bitwise* equal to
  the scalar reference -- every per-layer cycle count, activity counter and
  energy component, with exact ``==`` comparisons and no tolerances;
* **trace-class engines** (``trace_class=True``) must reproduce the
  reference's total compute cycles within
  :data:`~repro.sim.trace.TRACE_TOLERANCE` (the Q16.16 quantisation bound
  of the broadcast operand).

Because the suite parametrizes over :data:`~repro.sim.engines.ENGINE_SPECS`
and this module reads each spec's ``trace_class`` flag, adding an engine
to that table is all it takes to put it under the contract -- no new test
code.  ``docs/testing.md`` walks through adding an engine.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from ...arch.config import SPARSITY_VARIANTS
from . import EngineOutcome, EngineSpec, get_engine

__all__ = [
    "REFERENCE_ENGINE",
    "ConformanceError",
    "reference_outcome",
    "conformance_mismatches",
    "assert_conformance",
    "verify_engine",
]

#: The engine every other engine is held against: the per-layer scalar
#: reference implementation.
REFERENCE_ENGINE = "scalar"


class ConformanceError(AssertionError):
    """One engine diverged from the scalar reference on one case."""


def _spec(engine: Union[str, EngineSpec]) -> EngineSpec:
    """Accept an engine by name or spec."""
    return engine if isinstance(engine, EngineSpec) else get_engine(engine)


def reference_outcome(profile, config, variant: str) -> EngineOutcome:
    """The scalar reference's outcome for one case (the ground truth)."""
    return _spec(REFERENCE_ENGINE).evaluate(profile, config, variant)


def _performance_mismatches(reference, candidate) -> List[str]:
    """Bitwise field-level diffs of two ``ModelPerformance`` records."""
    problems: List[str] = []
    if len(candidate.layers) != len(reference.layers):
        return [
            f"layer count {len(candidate.layers)} != {len(reference.layers)}"
        ]
    for ref_layer, out_layer in zip(reference.layers, candidate.layers):
        name = ref_layer.layer.name
        for attribute in (
            "cycles",
            "cell_activations",
            "effective_cell_activations",
            "macs",
        ):
            ref_value = getattr(ref_layer, attribute)
            out_value = getattr(out_layer, attribute)
            if out_value != ref_value:
                problems.append(
                    f"layer {name!r}: {attribute} {out_value!r} != "
                    f"{ref_value!r}"
                )
        if out_layer.energy.as_dict() != ref_layer.energy.as_dict():
            problems.append(
                f"layer {name!r}: energy {out_layer.energy.as_dict()!r} != "
                f"{ref_layer.energy.as_dict()!r}"
            )
    if candidate.total_cycles != reference.total_cycles:
        problems.append(
            f"total_cycles {candidate.total_cycles!r} != "
            f"{reference.total_cycles!r}"
        )
    if candidate.total_energy_pj != reference.total_energy_pj:
        problems.append(
            f"total_energy_pj {candidate.total_energy_pj!r} != "
            f"{reference.total_energy_pj!r}"
        )
    return problems


def conformance_mismatches(
    engine: Union[str, EngineSpec],
    profile,
    config,
    variant: str,
    reference: Optional[EngineOutcome] = None,
) -> List[str]:
    """Diff one engine against the scalar reference on one case.

    Args:
        engine: the engine under test (name or spec).
        profile: the profiled workload
            (:class:`~repro.workloads.profiles.ModelSparsityProfile`).
        config: the hardware configuration
            (:class:`~repro.arch.config.DBPIMConfig`).
        variant: one of :data:`~repro.arch.config.SPARSITY_VARIANTS`.
        reference: a precomputed reference outcome (recomputed when
            omitted; pass it when sweeping many engines over one case).

    Returns:
        Human-readable mismatch descriptions; empty when the engine
        conforms.
    """
    spec = _spec(engine)
    if reference is None:
        reference = reference_outcome(profile, config, variant)
    outcome = spec.evaluate(profile, config, variant)
    if spec.trace_class:
        from ..trace import TRACE_TOLERANCE

        expected = reference.compute_cycles
        if expected == 0:
            error = abs(outcome.compute_cycles)
        else:
            error = abs(outcome.compute_cycles - expected) / abs(expected)
        if error > TRACE_TOLERANCE:
            return [
                f"compute_cycles {outcome.compute_cycles!r} vs reference "
                f"{expected!r} (rel err {error:.3e} > {TRACE_TOLERANCE})"
            ]
        return []
    if outcome.performance is None:
        return [
            "engine returned no ModelPerformance but is not trace-class "
            "(set trace_class=True for aggregate-only engines)"
        ]
    problems = _performance_mismatches(
        reference.performance, outcome.performance
    )
    if outcome.compute_cycles != reference.compute_cycles:
        problems.append(
            f"compute_cycles {outcome.compute_cycles!r} != "
            f"{reference.compute_cycles!r}"
        )
    return problems


def assert_conformance(
    engine: Union[str, EngineSpec],
    profile,
    config,
    variant: str,
    reference: Optional[EngineOutcome] = None,
    case: str = "",
) -> None:
    """Assert one engine conforms on one case.

    Raises:
        ConformanceError: naming the engine, the case and every mismatched
            field.
    """
    spec = _spec(engine)
    problems = conformance_mismatches(
        spec, profile, config, variant, reference=reference
    )
    if problems:
        label = case or f"{profile.workload.name}/{variant}"
        details = "\n  ".join(problems)
        raise ConformanceError(
            f"engine {spec.name!r} diverged from {REFERENCE_ENGINE!r} on "
            f"{label}:\n  {details}"
        )


def verify_engine(
    engine: Union[str, EngineSpec],
    profiles: Iterable,
    configs: Iterable,
    variants: Optional[Iterable[str]] = None,
) -> int:
    """Run one engine through a whole case matrix, failing on the first
    divergence.

    Args:
        engine: the engine under test (name or spec).
        profiles: profiled workloads to cover.
        configs: hardware configurations to cover.
        variants: sparsity variants (default: every one of
            :data:`~repro.arch.config.SPARSITY_VARIANTS`).

    Returns:
        The number of cases checked (for "the matrix was not empty"
        assertions).

    Raises:
        ConformanceError: on the first non-conformant case.
    """
    spec = _spec(engine)
    checked = 0
    profile_list = list(profiles)
    variant_list = SPARSITY_VARIANTS if variants is None else tuple(variants)
    for config in configs:
        for profile in profile_list:
            for variant in variant_list:
                assert_conformance(spec, profile, config, variant)
                checked += 1
    return checked
