"""Stage benchmark: where workload profiling spends its CPU, RNG or not.

A cold Fig. 7 sweep spends nearly all of its time in
:func:`~repro.workloads.profiles.profile_model`, and part of that is the
seeded RNG draws, which the pinned profiles fix.  This benchmark splits the
profiling of the 153 layers of the five paper models (seed 0, the default
FTA configuration, IPU groups of 16) into its stages, in the order
:func:`~repro.workloads.profiles.profile_layer` runs them, layer by layer:

* ``weights_rng`` / ``weights_rest`` -- the bare RNG draws of
  ``synthesize_layer_weights`` (the same generator calls, nothing else)
  and the rest of that function;
* ``quantise`` -- ``quantize_weights``;
* ``fta`` -- ``layer_statistics``;
* ``activations_rng`` / ``activations_rest`` -- likewise for
  ``synthesize_activations``;
* ``ipu`` -- ``InputPreprocessingUnit.average_active_columns``;

plus ``rng_floor`` (both draw stages), ``stages_non_rng`` (the other
five), ``profile_layer`` (one pass of ``profile_layer`` itself) and
``non_rng`` (``profile_layer - rng_floor``: the CPU profiling spends
beyond the bare draws).  The stage pass interleaves the bare draws with
the stages, so its stages run on caches the draws just churned; the two
non-RNG figures bracket the same work.  Every time is process CPU
(``time.process_time``) of one pass over the 153 layers, in a fresh child
process after one warm-up pass; ``--repeats`` children give the median
and quartiles.

``--baseline SRC`` times a second source tree (the ``src`` directory of
another checkout) in the same run, alternating which side goes first, so
two versions are compared under the same host load.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_profile.py \
        [--repeats 15] [--baseline OTHER/src --baseline-label NAME] \
        [--output BENCH_profile.json]

See ``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from bench_meta import bench_metadata

#: Stages in pipeline order; ``stages_non_rng`` sums every stage not
#: ending in ``_rng``.
STAGES = (
    "weights_rng",
    "weights_rest",
    "quantise",
    "fta",
    "activations_rng",
    "activations_rest",
    "ipu",
)

#: Reported after the stages.
SUMMARIES = ("rng_floor", "stages_non_rng", "profile_layer", "non_rng")

#: The ``src`` directory of this checkout.
SOURCE = Path(__file__).resolve().parents[2] / "src"

#: Longest a child may run before the benchmark gives up, in seconds.
CHILD_TIMEOUT_S = 300


def _measure() -> Dict[str, float]:
    """One warm-up pass, then one timed pass: CPU seconds per stage.

    Runs in the child process against whichever ``repro`` is importable.
    """
    import numpy as np

    from repro.arch.ipu import InputPreprocessingUnit
    from repro.core.fta import layer_statistics
    from repro.core.quantization import quantize_weights
    from repro.workloads import profiles
    from repro.workloads.models import PAPER_MODELS

    layers = [
        (layer, workload)
        for workload in PAPER_MODELS.values()
        for layer in workload.layers
    ]
    clock = time.process_time

    def draw_weights(layer) -> None:
        # synthesize_layer_weights' generator calls, in order.
        rng = np.random.default_rng(zlib.crc32(layer.name.encode()) % (1 << 16))
        filters = min(layer.out_channels, profiles.MAX_SAMPLED_FILTERS)
        elements = min(layer.reduction_size, profiles.MAX_SAMPLED_ELEMENTS)
        rng.random(size=(filters, elements))
        rng.standard_normal(size=(filters, elements))
        rng.standard_normal(size=(filters, elements))
        rng.integers(0, elements, size=filters)
        rng.normal(0.0, 0.45, size=filters)
        rng.normal(size=filters)

    def draw_activations(layer) -> None:
        # synthesize_activations' generator calls.
        rng = np.random.default_rng(
            (zlib.crc32(layer.name.encode()) % (1 << 16)) + 7
        )
        rng.standard_normal(
            size=min(layer.activation_count, profiles.MAX_SAMPLED_ACTIVATIONS)
        )

    def stage_pass() -> Dict[str, float]:
        totals = dict.fromkeys(("weights", "activations") + STAGES, 0.0)
        for layer, workload in layers:
            start = clock()
            draw_weights(layer)
            drawn = clock()
            weights = profiles.synthesize_layer_weights(layer, workload.redundancy)
            synthesized = clock()
            codes, _ = quantize_weights(weights, per_channel=True)
            quantised = clock()
            layer_statistics(codes)
            counted = clock()
            draw_activations(layer)
            drawn_activations = clock()
            activations = profiles.synthesize_activations(
                layer, workload.activation_density
            )
            activated = clock()
            InputPreprocessingUnit(group_size=16).average_active_columns(
                activations
            )
            end = clock()
            totals["weights_rng"] += drawn - start
            totals["weights"] += synthesized - drawn
            totals["quantise"] += quantised - synthesized
            totals["fta"] += counted - quantised
            totals["activations_rng"] += drawn_activations - counted
            totals["activations"] += activated - drawn_activations
            totals["ipu"] += end - activated
        totals["weights_rest"] = totals.pop("weights") - totals["weights_rng"]
        totals["activations_rest"] = (
            totals.pop("activations") - totals["activations_rng"]
        )
        return totals

    def profile_pass() -> float:
        start = clock()
        for layer, workload in layers:
            profiles.profile_layer(
                layer, workload.redundancy, workload.activation_density
            )
        return clock() - start

    stage_pass()
    profile_pass()
    sample = stage_pass()
    sample["profile_layer"] = profile_pass()
    sample["rng_floor"] = sample["weights_rng"] + sample["activations_rng"]
    sample["stages_non_rng"] = sum(
        sample[stage] for stage in STAGES if not stage.endswith("_rng")
    )
    sample["non_rng"] = sample["profile_layer"] - sample["rng_floor"]
    sample["layers"] = len(layers)
    return sample


def _child(source: Path) -> Dict[str, float]:
    """:func:`_measure` in a fresh interpreter importing ``repro`` from
    ``source``."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child"],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def _summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of ``samples`` (quartiles equal the median for
    fewer than two samples)."""
    median = statistics.median(samples)
    if len(samples) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def run_benchmark(
    repeats: int, baseline: Optional[Path], baseline_label: str
) -> Dict[str, object]:
    """Time ``repeats`` children per side, alternating the side that goes
    first, and summarise every stage per side."""
    sides = {"change": SOURCE}
    if baseline is not None:
        sides[baseline_label] = baseline
    samples: Dict[str, List[Dict[str, float]]] = {name: [] for name in sides}
    order = list(sides)
    for _ in range(repeats):
        for name in order:
            samples[name].append(_child(sides[name]))
        order.reverse()
    keys = STAGES + SUMMARIES
    report: Dict[str, object] = {"benchmark": "profile"}
    report.update(bench_metadata())
    report.update(
        {
            "layers": samples["change"][0]["layers"],
            "repeats": repeats,
            "clock": "time.process_time, one pass over the layers, seconds",
            "sides": {
                name: {
                    key: _summary([sample[key] for sample in runs])
                    for key in keys
                }
                for name, runs in samples.items()
            },
        }
    )
    if baseline is not None:
        for key in ("non_rng", "stages_non_rng"):
            change = [sample[key] for sample in samples["change"]]
            base = [sample[key] for sample in samples[baseline_label]]
            report[f"{key}_ratio"] = statistics.median(
                change
            ) / statistics.median(base)
            report[f"{key}_pairs_won"] = sum(c < b for c, b in zip(change, base))
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--repeats", type=int, default=15,
        help="child processes per side (median and quartiles are reported)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="SRC",
        help="the src directory of a second checkout, timed alternately",
    )
    parser.add_argument(
        "--baseline-label", default="baseline", metavar="NAME",
        help="the baseline's name in the report (e.g. its commit)",
    )
    parser.add_argument(
        "--output", default="BENCH_profile.json", metavar="PATH",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_measure()))
        return 0
    if args.repeats <= 0:
        parser.error("--repeats must be positive")
    if args.baseline_label == "change":
        parser.error("--baseline-label must differ from 'change'")

    report = run_benchmark(args.repeats, args.baseline, args.baseline_label)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    sides = report["sides"]
    print(f"{'stage':<18}" + "".join(f"{name:>26}" for name in sides))
    for key in STAGES + SUMMARIES:
        cells = "".join(_cell(side[key]) for side in sides.values())
        print(f"{key:<18}{cells}")
    print(f"(ms of process CPU over {report['layers']} layers: median [q1-q3])")
    for key in ("non_rng", "stages_non_rng"):
        if f"{key}_ratio" in report:
            print(
                f"{key} change/{args.baseline_label}: "
                f"{report[f'{key}_ratio']:.3f}, change faster in "
                f"{report[f'{key}_pairs_won']}/{args.repeats} pairs"
            )
    print(f"wrote {output}")
    return 0


def _cell(summary: Dict[str, float]) -> str:
    """``median [q1-q3]`` in milliseconds, right-aligned."""
    text = (
        f"{summary['median'] * 1e3:.1f} "
        f"[{summary['q1'] * 1e3:.1f}-{summary['q3'] * 1e3:.1f}]"
    )
    return f"{text:>26}"


if __name__ == "__main__":
    sys.exit(main())
