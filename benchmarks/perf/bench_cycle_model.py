"""Micro-benchmark: scalar vs vectorized cycle-model engine.

Times the Fig. 7 sweep (every requested model x all four sparsity variants,
i.e. exactly what ``repro run fig7`` evaluates) under both cycle-model
engines on every requested hardware preset, verifies that the engines agree
bitwise, and writes the measurements to ``BENCH_cycle_model.json`` so the
repository accumulates a perf trajectory across PRs.

Workload profiling (the seed-driven synthesis of sparsity statistics) is
engine-independent, so the profiles are computed once and shared between
both timed sessions -- the benchmark isolates the cycle-model evaluation
itself.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_cycle_model.py \
        [--presets paper-28nm ...] [--models alexnet ...] \
        [--repeats 5] [--output BENCH_cycle_model.json]

See ``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from bench_meta import bench_metadata
from repro.api import Experiment, list_configs
from repro.workloads import list_workloads

#: Engines timed against each other, in report order.
ENGINES = ("scalar", "vectorized")


def _sessions(preset: str, models: Sequence[str]) -> Dict[str, Experiment]:
    """One session per engine, sharing a single warm profile cache."""
    sessions = {
        engine: Experiment(config=preset, engine=engine) for engine in ENGINES
    }
    reference = sessions["scalar"]
    for model in models:
        reference.profile(model)  # profile once ...
    for session in sessions.values():
        session._profiles = reference._profiles  # ... share across engines
    return sessions


def _time_fig7(session: Experiment, models: Sequence[str], repeats: int) -> float:
    """Best-of-``repeats`` wall time of one fig7 evaluation, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        session.speedup_energy(models)
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(
    presets: Sequence[str],
    models: Sequence[str],
    repeats: int,
) -> Dict[str, object]:
    """Benchmark every preset and return the report payload."""
    report: Dict[str, object] = {
        "benchmark": "cycle_model",
        "experiment": "fig7",
        **bench_metadata(),
        "models": list(models),
        "repeats": repeats,
        "presets": {},
    }
    for preset in presets:
        sessions = _sessions(preset, models)
        # Correctness gate: the engines must agree bitwise before timing.
        rows = {
            engine: session.speedup_energy(models)
            for engine, session in sessions.items()
        }
        if rows["scalar"] != rows["vectorized"]:
            raise AssertionError(
                f"engine outputs diverge on preset {preset!r}; "
                "run tests/sim/test_vectorized.py for details"
            )
        timings = {
            engine: _time_fig7(sessions[engine], models, repeats)
            for engine in ENGINES
        }
        report["presets"][preset] = {
            "scalar_s": timings["scalar"],
            "vectorized_s": timings["vectorized"],
            "speedup": timings["scalar"] / timings["vectorized"],
        }
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--presets", nargs="+", default=None, metavar="PRESET",
        help="hardware presets to benchmark (default: all registered)",
    )
    parser.add_argument(
        "--models", nargs="+", default=None, metavar="MODEL",
        help="workloads of the fig7 sweep (default: all five paper models)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repetitions per engine (best-of is reported)",
    )
    parser.add_argument(
        "--output", default="BENCH_cycle_model.json", metavar="PATH",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    presets: List[str] = args.presets or list_configs()
    models: List[str] = args.models or list_workloads()
    if args.repeats <= 0:
        parser.error("--repeats must be positive")

    report = run_benchmark(presets, models, args.repeats)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"{'preset':<24}{'scalar (ms)':>14}{'vectorized (ms)':>18}{'speedup':>10}")
    for preset, entry in report["presets"].items():
        print(
            f"{preset:<24}{entry['scalar_s'] * 1e3:>14.2f}"
            f"{entry['vectorized_s'] * 1e3:>18.2f}{entry['speedup']:>9.1f}x"
        )
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
