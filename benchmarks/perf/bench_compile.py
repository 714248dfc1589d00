"""Micro-benchmark: whole-model compilation and trace-replay throughput.

Times, for every requested workload on one hardware preset, (a) the
pass-based pipeline compiling the whole network into a segmented program
(``repro.compiler.pipeline.compile_model``) and (b) the trace simulator
replaying that program (``repro.sim.trace.TraceSimulator.run``), verifying
on the way that the traced broadcast cycles match the analytical cycle
model within the documented tolerance.  The default workload set covers
every registered family -- the five paper CNNs *and* the graph-only
transformer workloads -- and each row records the workload's graph
structure (nodes, joins, residual traffic), so the benchmark tracks the
graph-aware pipeline too.  Results land in ``BENCH_compile.json`` so the
repository accumulates a compile/replay perf trajectory across PRs, next
to ``BENCH_cycle_model.json``.

Workload profiling is timed separately and excluded from the per-stage
numbers -- the benchmark isolates the compiler and the trace executor.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_compile.py \
        [--preset paper-28nm] [--models alexnet ...] [--variant hybrid] \
        [--repeats 3] [--output BENCH_compile.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from bench_meta import bench_metadata
from repro.api import get_config
from repro.compiler import compile_model
from repro.sim.cycle_model import CycleModel
from repro.sim.trace import TRACE_TOLERANCE, TraceSimulator, relative_cycle_error
from repro.workloads import get_workload, list_workloads, profile_model


def _best_of(repeats: int, call) -> float:
    """Best-of-``repeats`` wall time of ``call()``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(
    preset: str,
    models: Sequence[str],
    variant: str,
    repeats: int,
) -> Dict[str, object]:
    """Benchmark every workload and return the report payload."""
    config = get_config(preset)
    simulator = TraceSimulator(config)
    cycle_model = CycleModel(config)
    report: Dict[str, object] = {
        "benchmark": "compile",
        **bench_metadata(),
        "preset": preset,
        "variant": variant,
        "repeats": repeats,
        "models": {},
    }
    for model in models:
        workload = get_workload(model)
        profile = profile_model(workload, seed=0)
        compiled = compile_model(profile, config=config, variant=variant)
        trace = simulator.run(compiled)
        # Correctness gate: the replay must agree with the analytical model
        # before its timings mean anything.
        error = relative_cycle_error(
            trace, cycle_model.run_model(profile, variant)
        )
        if error > TRACE_TOLERANCE:
            raise AssertionError(
                f"trace diverges from the analytical model on {model!r} "
                f"(rel err {error:.3e}); run tests/sim/test_trace.py"
            )
        compile_s = _best_of(
            repeats, lambda: compile_model(profile, config=config, variant=variant)
        )
        trace_s = _best_of(repeats, lambda: simulator.run(compiled))
        instructions = len(compiled.program)
        graph = workload.graph
        report["models"][model] = {
            "instructions": instructions,
            "segments": len(compiled.program.segments),
            "unique_instructions": compiled.program.unique_instructions,
            "graph_nodes": len(graph) if graph is not None else None,
            "graph_joins": len(graph.join_nodes()) if graph is not None else 0,
            "residual_feature_bytes": trace.residual_feature_bytes,
            "compile_s": compile_s,
            "trace_s": trace_s,
            "trace_minstr_per_s": (
                instructions / trace_s / 1e6 if trace_s > 0 else float("inf")
            ),
            "max_relative_error": error,
        }
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--preset", default="paper-28nm", metavar="PRESET",
        help="hardware preset to compile for",
    )
    parser.add_argument(
        "--models", nargs="+", default=None, metavar="MODEL",
        help="workloads to compile (default: all five paper models)",
    )
    parser.add_argument(
        "--variant", default="hybrid",
        choices=("base", "input", "weight", "hybrid"),
        help="sparsity variant to compile for",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per stage (best-of is reported)",
    )
    parser.add_argument(
        "--output", default="BENCH_compile.json", metavar="PATH",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.repeats <= 0:
        parser.error("--repeats must be positive")
    models: List[str] = args.models or list_workloads(family=None)

    report = run_benchmark(args.preset, models, args.variant, args.repeats)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(
        f"{'model':<16}{'instr':>9}{'segs':>6}{'compile (ms)':>14}"
        f"{'trace (ms)':>12}{'Minstr/s':>10}"
    )
    for model, entry in report["models"].items():
        print(
            f"{model:<16}{entry['instructions']:>9}{entry['segments']:>6}"
            f"{entry['compile_s'] * 1e3:>14.2f}{entry['trace_s'] * 1e3:>12.2f}"
            f"{entry['trace_minstr_per_s']:>10.2f}"
        )
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
