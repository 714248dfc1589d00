"""Micro-benchmark: config-fused grid kernel vs the per-job paths.

Times the full (preset x Fig. 7 variant) configuration grid of the fig7
workloads under three dispatch strategies for the same set of cycle-model
jobs, verifies all three agree bitwise, and writes the measurements to
``BENCH_grid.json``:

* ``sessions`` -- per-config-session dispatch (one session per config,
  as sweep shards and serve batches run): one
  ``simulate_jobs(..., fuse=False)`` call of the four variant jobs per
  preset;
* ``unfused`` -- one flat ``simulate_jobs(..., fuse=False)`` call over
  every (config, profile) job, i.e. the profile replicated once per
  configuration inside a single batch;
* ``fused`` -- one :func:`repro.sim.vectorized.simulate_grid` pass per
  profile: the config axis becomes the leading dimension of a 2-D
  broadcast, no per-config profile copies.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_grid.py \
        [--presets paper-28nm ...] [--models alexnet ...] \
        [--repeats 5] [--output BENCH_grid.json]

See ``docs/performance.md`` ("Engine tiers") for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import __version__
from repro.api import list_configs
from repro.api.configs import get_config
from repro.arch.energy import EnergyModel
from repro.sim.cycle_model import SPARSITY_VARIANTS
from repro.sim.vectorized import profile_arrays, simulate_grid, simulate_jobs
from repro.workloads import get_workload, list_workloads, profile_model


def _activity_fields(activity) -> Dict[str, np.ndarray]:
    """Flat field map of one BatchActivity for exact comparison."""
    fields = {
        "cycles": activity.cycles,
        "cell_activations": activity.cell_activations,
        "effective": activity.effective_cell_activations,
        "macs": activity.macs,
    }
    for component, values in activity.energy.items():
        fields[f"energy.{component}"] = values
    return fields


def _assert_bitwise_equal(label: str, left, right) -> None:
    """Refuse to report timings when two strategies disagree."""
    left_fields = _activity_fields(left)
    right_fields = _activity_fields(right)
    if set(left_fields) != set(right_fields):
        raise AssertionError(f"{label}: energy components diverge")
    for name, values in left_fields.items():
        if not np.array_equal(values, right_fields[name]):
            raise AssertionError(
                f"{label}: field {name!r} diverges; "
                "run tests/sim/test_grid.py for details"
            )


def _best_of(repeats: int, run: Callable[[], object]) -> float:
    """Best-of-``repeats`` wall time of ``run()``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(
    presets: Sequence[str],
    models: Sequence[str],
    repeats: int,
) -> Dict[str, object]:
    """Benchmark the three dispatch strategies on one shared config grid."""
    configs = [
        get_config(preset).for_variant(variant)
        for preset in presets
        for variant in SPARSITY_VARIANTS
    ]
    energy_model = EnergyModel()
    arrays = {
        model: profile_arrays(profile_model(get_workload(model), seed=0))
        for model in models
    }

    def run_fused():
        return [
            simulate_grid(arrays[model], configs, energy_model)
            for model in models
        ]

    def run_unfused():
        return [
            simulate_jobs(
                [arrays[model]] * len(configs),
                configs,
                energy_model,
                fuse=False,
            )
            for model in models
        ]

    def run_sessions():
        # The pre-fusion shard dispatch: one per-job call of the four
        # variant jobs per (model, preset) session.
        results = []
        for model in models:
            for start in range(0, len(configs), len(SPARSITY_VARIANTS)):
                chunk = configs[start : start + len(SPARSITY_VARIANTS)]
                results.append(
                    simulate_jobs(
                        [arrays[model]] * len(chunk),
                        chunk,
                        energy_model,
                        fuse=False,
                    )
                )
        return results

    # Correctness gate: all three strategies must agree bitwise.
    for model, fused, unfused in zip(models, run_fused(), run_unfused()):
        _assert_bitwise_equal(f"fused vs unfused ({model})", fused, unfused)

    timings = {
        "fused_s": _best_of(repeats, run_fused),
        "unfused_s": _best_of(repeats, run_unfused),
        "sessions_s": _best_of(repeats, run_sessions),
    }
    return {
        "benchmark": "grid",
        "experiment": "fig7",
        "version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "presets": list(presets),
        "models": list(models),
        "configs": len(configs),
        "repeats": repeats,
        **timings,
        "speedup_vs_sessions": timings["sessions_s"] / timings["fused_s"],
        "speedup_vs_unfused": timings["unfused_s"] / timings["fused_s"],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--presets", nargs="+", default=None, metavar="PRESET",
        help="hardware presets spanning the config grid (default: all)",
    )
    parser.add_argument(
        "--models", nargs="+", default=None, metavar="MODEL",
        help="workloads to evaluate (default: all five paper models)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repetitions per strategy (best-of is reported)",
    )
    parser.add_argument(
        "--output", default="BENCH_grid.json", metavar="PATH",
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
        f"{report['configs']} configs x {len(report['models'])} models "
        f"(best of {report['repeats']})"
    )
    for label, key in (
        ("per-config sessions", "sessions_s"),
        ("flat unfused batch", "unfused_s"),
        ("fused grid kernel", "fused_s"),
    ):
        print(f"  {label:<22}{report[key] * 1e3:>10.3f} ms")
    print(
        f"  speedup: {report['speedup_vs_sessions']:.2f}x vs sessions, "
        f"{report['speedup_vs_unfused']:.2f}x vs unfused"
    )
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
