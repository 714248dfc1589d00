"""Cycle-level performance simulation and system metrics.

Three execution styles back the simulator, one entry each in the fixed
engine table of :mod:`repro.sim.engines` (:data:`ENGINE_SPECS`):

* the analytical cycle model with its two interchangeable engines -- the
  NumPy-vectorized batch kernel (:mod:`repro.sim.vectorized`, the default)
  and the per-layer scalar reference (``engine="scalar"``); both produce
  bitwise-identical results;
* the **trace-driven program simulator** (:mod:`repro.sim.trace`), which
  replays the compiler's whole-model programs through the top controller
  and is cross-checked against the analytical model within
  :data:`~repro.sim.trace.TRACE_TOLERANCE`.

Adding an engine means adding one :class:`EngineSpec` to
:data:`ENGINE_SPECS`; the cross-engine conformance suite
(:mod:`repro.sim.engines.conformance`, ``tests/engines/``,
``docs/testing.md``) then holds it to the contract.
"""

from .engines import (
    ENGINE_SPECS,
    EngineOutcome,
    EngineSpec,
    get_engine,
    resolve_cycle_model_engine,
)
from .cycle_model import (
    DEFAULT_ENGINE,
    ENGINES,
    SPARSITY_VARIANTS,
    CycleModel,
    LayerPerformance,
    ModelPerformance,
)
from .metrics import (
    CycleBreakdown,
    SystemMetrics,
    compute_metrics,
    peak_throughput_tops,
)
from .trace import (
    DEFAULT_SIMD_LANES,
    TRACE_TOLERANCE,
    LayerTrace,
    ProgramTrace,
    TraceSimulator,
    relative_cycle_error,
)
from .vectorized import (
    MAX_FTA_THRESHOLD,
    BatchActivity,
    ProfileArrays,
    profile_arrays,
    simulate_grid,
    simulate_jobs,
)

__all__ = [
    "SPARSITY_VARIANTS",
    "ENGINES",
    "DEFAULT_ENGINE",
    "ENGINE_SPECS",
    "EngineSpec",
    "EngineOutcome",
    "get_engine",
    "resolve_cycle_model_engine",
    "CycleModel",
    "LayerPerformance",
    "ModelPerformance",
    "CycleBreakdown",
    "SystemMetrics",
    "compute_metrics",
    "peak_throughput_tops",
    "TRACE_TOLERANCE",
    "DEFAULT_SIMD_LANES",
    "LayerTrace",
    "ProgramTrace",
    "TraceSimulator",
    "relative_cycle_error",
    "MAX_FTA_THRESHOLD",
    "BatchActivity",
    "ProfileArrays",
    "profile_arrays",
    "simulate_grid",
    "simulate_jobs",
]
