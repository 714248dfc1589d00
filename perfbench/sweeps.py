"""The two sweep workloads, run in-process on the ``serial`` transport.

* ``cold-dse`` -- a cold Fig. 7 design-space sweep (fig7 x the five paper
  models x {paper-28nm, paper-28nm-8macro}) into a fresh packed store and
  journal per repetition.  The workload seed permutes the model and preset
  order; the experiment seed stays 0, the seed the paper numbers are
  reproduced at.
* ``warm-resweep`` -- a packed store is populated in set-up with
  fig2b/graph/table1/table4 x the paper models x all five presets x 16
  experiment seeds (960 points); every repetition copies it, re-sweeps the
  whole grid and then sweeps a fresh slice of 10 new table1/table4 seeds
  (100 points), each with a journal.  The workload seed picks one of four
  disjoint seed ranges.

Also a small command line for the child interpreters the set-up phase
times (``populate``) and for the untimed Fig. 7 accuracy run (``fig7``).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import (
    COVERAGE_FLOOR,
    PAPER_MODELS,
    PRESETS,
    Outcome,
    count_failures,
    expected_digests,
    fig7_gaps,
    load_digests,
    peak_rss_mb,
    tail,
    timed_child,
    use_checkout_sources,
)
from tracer import SpanTree, Tracer, layer_metrics

COLD_PRESETS = ("paper-28nm", "paper-28nm-8macro")
COLD_EXPERIMENT_SEED = 0
WARM_EXPERIMENTS = ("fig2b", "graph", "table1", "table4")
FRESH_EXPERIMENTS = ("table1", "table4")
WARM_BASE_SEEDS = 16
WARM_FRESH_SEEDS = 10
WARM_VARIANTS = 4
#: Set-up is repeated this many times per run and its median reported
#: (cold-dse's set-up is a bare import, so it is repeated more often).
SETUP_REPEATS = 3
COLD_SETUP_REPEATS = 5


# ---------------------------------------------------------------------------
# Grid definitions (the benchmark's inputs)
# ---------------------------------------------------------------------------
def cold_plan(seed: int) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """(models, presets) in the order the workload seed draws."""
    rng = random.Random(seed)
    models = list(PAPER_MODELS)
    presets = list(COLD_PRESETS)
    rng.shuffle(models)
    rng.shuffle(presets)
    return tuple(models), tuple(presets)


def warm_seeds(seed: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(base seeds, fresh seeds) of the warm re-sweep for a workload seed."""
    variant = seed % WARM_VARIANTS
    base = tuple(range(WARM_BASE_SEEDS * variant, WARM_BASE_SEEDS * (variant + 1)))
    first = WARM_BASE_SEEDS * WARM_VARIANTS + WARM_FRESH_SEEDS * variant
    return base, tuple(range(first, first + WARM_FRESH_SEEDS))


def grid_identities(
    experiments: Sequence[str], configs: Sequence[str]
) -> List[str]:
    """Identities (see :func:`common.identity`) of one seed's points."""
    from repro.api.experiment import get_experiment_spec

    out = []
    for experiment in experiments:
        takes_models = get_experiment_spec(experiment).takes_models
        for config in configs:
            if takes_models:
                out.extend(f"{experiment}|{config}|{m}" for m in PAPER_MODELS)
            else:
                out.append(f"{experiment}|{config}|")
    return out


def cold_expected() -> Dict[int, Optional[Dict[str, str]]]:
    identities = grid_identities(("fig7",), COLD_PRESETS)
    committed = load_digests("cold-dse")
    return {
        COLD_EXPERIMENT_SEED: expected_digests(
            committed, COLD_EXPERIMENT_SEED, identities
        )
    }


def warm_expected(seed: int) -> Dict[int, Optional[Dict[str, str]]]:
    base, fresh = warm_seeds(seed)
    committed = load_digests("warm-resweep")
    base_ids = grid_identities(WARM_EXPERIMENTS, PRESETS)
    fresh_ids = grid_identities(FRESH_EXPERIMENTS, PRESETS)
    expected = {s: expected_digests(committed, s, base_ids) for s in base}
    expected.update({s: expected_digests(committed, s, fresh_ids) for s in fresh})
    return expected


def populate(directory: Path, seeds: Sequence[int]) -> Any:
    """Sweep the warm base grid into a packed store at ``directory``."""
    from repro.api.sweep import run_sweep

    return run_sweep(
        experiments=WARM_EXPERIMENTS,
        models=PAPER_MODELS,
        configs=PRESETS,
        seeds=tuple(seeds),
        cache_dir=directory,
        cache_backend="packed",
        transport="serial",
    )


# ---------------------------------------------------------------------------
# Repetition loop shared by both sweep workloads
# ---------------------------------------------------------------------------
@dataclass
class _Rep:
    wall: float
    traced: bool
    points: int
    hits: int
    spans: List[Tuple]


def _repeat(
    seconds: float,
    trace: bool,
    run_once: Callable[[int], Tuple[float, List[Any]]],
    check: Callable[[List[Dict[str, Any]]], int],
    outcome: Outcome,
) -> Tuple[List[_Rep], List[Dict[str, Any]]]:
    """Run repetitions for ``seconds`` (at least two).

    Untraced runs time every repetition untraced.  Traced runs interleave
    untraced and traced repetitions in ABBA order (u t t u u t t u ...), so
    the same run yields the per-layer spans and a tracing overhead that a
    steady drift in host speed biases little once a run completes four.
    """
    tracer = Tracer() if trace else None
    reps: List[_Rep] = []
    last: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 4 in (1, 2)
        if traced:
            tracer.install()
        try:
            wall, sweeps = run_once(len(reps))
        finally:
            spans = tracer.take() if traced else []
            if traced:
                tracer.uninstall()
        payloads = [r.to_dict() for sweep in sweeps for r in sweep.results]
        outcome.attempted += len(payloads)
        outcome.failed += check(payloads)
        reps.append(
            _Rep(
                wall=wall,
                traced=traced,
                points=len(payloads),
                hits=sum(sweep.cache_hits for sweep in sweeps),
                spans=spans,
            )
        )
        last = payloads
        elapsed = time.perf_counter() - started
        if len(reps) >= 2 and elapsed + wall / 2 >= seconds:
            return reps, last


def _summarise(reps: List[_Rep], outcome: Outcome, trace: bool) -> None:
    """Fill end-to-end or per-layer metrics from the repetitions."""
    outcome.samples = [rep.wall for rep in reps]
    plain = [rep for rep in reps if not rep.traced]
    walls = [rep.wall for rep in plain]
    median_wall = statistics.median(walls)
    if not trace:
        outcome.end_to_end.update(
            {
                "ops_per_s": plain[0].points / median_wall,
                "p50_ms": 1000.0 * median_wall,
                "tail_ms": 1000.0 * tail(walls),
            }
        )
        return
    traced = [rep for rep in reps if rep.traced]
    per_rep: List[Dict[str, float]] = []
    coverages = []
    for rep in traced:
        tree = SpanTree(rep.spans)
        metrics = layer_metrics(tree)
        coverage = sum(tree.duration(s) for s in tree.roots()) / rep.wall
        coverages.append(coverage)
        if coverage < COVERAGE_FLOOR:
            outcome.problems.append(
                f"trace coverage {coverage:.3f} < {COVERAGE_FLOOR} "
                f"(layer self times {tree.layer_self_times()}, wall {rep.wall:.4f}s)"
            )
        metrics["profiles.wall_share"] = metrics["profiles.busy_s"] / rep.wall
        metrics["store.hit_ratio"] = rep.hits / rep.points
        per_rep.append(metrics)
        outcome.spans.extend(rep.spans)
    for name in per_rep[0]:
        outcome.per_layer[name] = statistics.mean(m[name] for m in per_rep)
    calls = outcome.per_layer["profiles.calls"]
    outcome.per_layer["profiles.useful_ratio"] = (
        outcome.per_layer.pop("profiles.distinct") / calls if calls else 1.0
    )
    outcome.per_layer["trace.coverage"] = min(coverages)
    outcome.per_layer["trace.overhead_pct"] = 100.0 * (
        statistics.median(rep.wall for rep in traced) / median_wall - 1.0
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def cold_dse(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    outcome = Outcome()
    setups = [
        timed_child(["-c", "import repro.api.sweep"])[0]
        for _ in range(COLD_SETUP_REPEATS)
    ]
    from repro.api.sweep import run_sweep

    models, presets = cold_plan(seed)
    expected = cold_expected()

    def run_once(index: int) -> Tuple[float, List[Any]]:
        work = scratch / f"cold-{index}"
        work.mkdir(parents=True)
        start = time.perf_counter()
        sweep = run_sweep(
            experiments=("fig7",),
            models=models,
            configs=presets,
            seeds=(COLD_EXPERIMENT_SEED,),
            cache_dir=work / "store",
            cache_backend="packed",
            transport="serial",
            journal=work / "sweep.jsonl",
        )
        wall = time.perf_counter() - start
        shutil.rmtree(work)
        return wall, [sweep]

    outcome.origin = time.perf_counter()
    reps, last = _repeat(
        seconds, trace, run_once, lambda p: count_failures(p, expected), outcome
    )
    _summarise(reps, outcome, trace)
    if not trace:
        speedup_gap, energy_gap = fig7_gaps(last)
        outcome.end_to_end.update(
            {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb(),
                "fig7.speedup_gap_pct": speedup_gap,
                "fig7.energy_gap_pct": energy_gap,
            }
        )
    return outcome


def warm_resweep(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    outcome = Outcome()
    base_seeds, fresh_seeds = warm_seeds(seed)
    base = scratch / "base"
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(base, ignore_errors=True)
        setups.append(
            timed_child(
                [
                    str(Path(__file__).resolve()),
                    "populate",
                    str(base),
                    str(base_seeds[0]),
                    str(len(base_seeds)),
                ]
            )[0]
        )
    from repro.api.sweep import run_sweep

    expected = warm_expected(seed)

    def run_once(index: int) -> Tuple[float, List[Any]]:
        work = scratch / f"warm-{index}"
        shutil.copytree(base, work / "store")
        # Flush the copy first: an existing store has no dirty pages, and
        # the first timed fsync must not write back the whole copied pack.
        for path in (work / "store").iterdir():
            with open(path, "rb") as handle:
                os.fsync(handle.fileno())
        start = time.perf_counter()
        whole = run_sweep(
            experiments=WARM_EXPERIMENTS,
            models=PAPER_MODELS,
            configs=PRESETS,
            seeds=base_seeds,
            cache_dir=work / "store",
            cache_backend="packed",
            transport="serial",
            journal=work / "resweep.jsonl",
        )
        fresh = run_sweep(
            experiments=FRESH_EXPERIMENTS,
            configs=PRESETS,
            seeds=fresh_seeds,
            cache_dir=work / "store",
            cache_backend="packed",
            transport="serial",
            journal=work / "fresh.jsonl",
        )
        wall = time.perf_counter() - start
        shutil.rmtree(work)
        return wall, [whole, fresh]

    outcome.origin = time.perf_counter()
    reps, _ = _repeat(
        seconds, trace, run_once, lambda p: count_failures(p, expected), outcome
    )
    rss = peak_rss_mb()
    _summarise(reps, outcome, trace)
    if not trace:
        # The accuracy figures come from an untimed Fig. 7 run in a child
        # interpreter, so they neither enter the timing nor the peak RSS.
        _, stdout = timed_child([str(Path(__file__).resolve()), "fig7"])
        gaps = json.loads(stdout.strip().splitlines()[-1])
        outcome.end_to_end.update(
            {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": rss,
                "fig7.speedup_gap_pct": gaps["speedup_gap_pct"],
                "fig7.energy_gap_pct": gaps["energy_gap_pct"],
            }
        )
    return outcome


def _main(argv: Sequence[str]) -> int:
    use_checkout_sources()
    if argv[:1] == ["populate"]:
        first, count = int(argv[2]), int(argv[3])
        populate(Path(argv[1]), range(first, first + count))
        return 0
    if argv[:1] == ["fig7"]:
        from repro.api import Experiment

        result = Experiment("paper-28nm", seed=COLD_EXPERIMENT_SEED).run("fig7")
        speedup, energy = fig7_gaps([result.to_dict()])
        print(json.dumps({"speedup_gap_pct": speedup, "energy_gap_pct": energy}))
        return 0
    print("usage: sweeps.py populate DIR FIRST_SEED COUNT | sweeps.py fig7",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
