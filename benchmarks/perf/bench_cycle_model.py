"""Micro-benchmark: scalar vs vectorized cycle-model engine.

Times the Fig. 7 sweep (every requested model x all four sparsity variants,
i.e. exactly what ``repro run fig7`` evaluates) under both cycle-model
engines on every requested hardware preset, plus the single-model fig7
run a served ``POST /v1/run`` request makes (vectorized engine, one model
per call), verifies that the engines agree bitwise, and writes the
measurements to ``BENCH_cycle_model.json`` so the repository accumulates a
perf trajectory across PRs.

Every timing is process CPU time (``time.process_time``, which other
processes on a shared host do not inflate) over ``--repeats`` runs (30 by
default), reported as the median and the interquartile range (IQR), so two
snapshots can be compared against their spread.

Workload profiling (the seed-driven synthesis of sparsity statistics) is
engine-independent, so the profiles are computed once and shared between
both timed sessions -- the benchmark isolates the cycle-model evaluation
itself.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_cycle_model.py \
        [--presets paper-28nm ...] [--models alexnet ...] \
        [--repeats 30] [--output BENCH_cycle_model.json]

See ``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

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


def _cpu_times(call: Callable[[], object], repeats: int) -> Dict[str, float]:
    """Median and IQR of ``repeats`` process-CPU timings of ``call``, in
    seconds (IQR 0 for fewer than two repeats)."""
    samples = []
    for _ in range(repeats):
        start = time.process_time()
        call()
        samples.append(time.process_time() - start)
    if len(samples) < 2:
        return {"median": samples[0], "iqr": 0.0}
    low, _, high = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "iqr": high - low}


def _single_model_runs(
    session: Experiment, models: Sequence[str]
) -> Callable[[], None]:
    """One call per model, each a one-model fig7 run (a served request)."""

    def run() -> None:
        for model in models:
            session.run("fig7", models=[model])

    return run


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
        "clock": "process_time",
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
            engine: _cpu_times(
                lambda session=sessions[engine]: session.speedup_energy(models),
                repeats,
            )
            for engine in ENGINES
        }
        single = _cpu_times(
            _single_model_runs(sessions["vectorized"], models), repeats
        )
        report["presets"][preset] = {
            "scalar_s": timings["scalar"]["median"],
            "scalar_iqr_s": timings["scalar"]["iqr"],
            "vectorized_s": timings["vectorized"]["median"],
            "vectorized_iqr_s": timings["vectorized"]["iqr"],
            "speedup": timings["scalar"]["median"]
            / timings["vectorized"]["median"],
            # Per request: one run per model, divided by the model count.
            "single_model_s": single["median"] / len(models),
            "single_model_iqr_s": single["iqr"] / len(models),
        }
    return report


def _cell(median_s: float, iqr_s: float) -> str:
    """``median ± IQR`` in milliseconds."""
    return f"{median_s * 1e3:.3f} ± {iqr_s * 1e3:.3f}"


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
        "--repeats", type=int, default=30,
        help="timing repetitions per case (median and IQR are reported)",
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

    print(
        f"{'preset':<24}{'scalar (ms)':>16}{'vectorized (ms)':>18}"
        f"{'speedup':>9}{'1-model run (ms)':>20}"
    )
    for preset, entry in report["presets"].items():
        single = _cell(entry["single_model_s"], entry["single_model_iqr_s"])
        print(
            f"{preset:<24}"
            f"{_cell(entry['scalar_s'], entry['scalar_iqr_s']):>16}"
            f"{_cell(entry['vectorized_s'], entry['vectorized_iqr_s']):>18}"
            f"{entry['speedup']:>8.1f}x{single:>20}"
        )
    print("(median ± IQR of process CPU time)")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
