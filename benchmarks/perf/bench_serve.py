"""Micro-benchmark: the ``repro.serve`` daemon vs cold-process dispatch.

Measures the two things the serving layer exists for:

* **warm-session latency** -- one ``fig7`` request against a warm
  :class:`~repro.serve.service.ExperimentService` (hot cache disabled, so the
  simulator really runs) vs the wall time of a cold ``repro run`` child
  process, which pays interpreter startup, registry construction and
  workload profiling on every invocation.  The acceptance bar for this
  repository is warm beating cold by >= 5x;
* **throughput under concurrency** -- requests/second and the coalesce
  ratio (requests merged per simulator dispatch) at concurrency 1 / 8 / 64,
  with client threads submitting distinct per-model requests round-robin
  so the hot cache cannot short-circuit the batcher.

Coalescing gains scale with how many requests pile up while a batch
executes, which depends on core count and timer resolution; ``cpu_count``
is recorded so snapshots from different machines stay comparable.  Results
are written to ``BENCH_serve.json`` so the repository accumulates a perf
trajectory across PRs.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_serve.py \
        [--model alexnet] [--concurrency 1 8 64] [--requests 64] \
        [--repeats 3] [--output BENCH_serve.json]

See ``docs/serving.md`` for the serving architecture this exercises.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from bench_meta import bench_metadata
from repro.serve import ExperimentService, RunRequest, ServeConfig
from repro.workloads import list_workloads

#: Concurrency levels exercised by default.
CONCURRENCY_LEVELS = (1, 8, 64)


def _time_cold_process(model: str, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one cold ``repro run`` child process."""
    command = [
        sys.executable,
        "-m",
        "repro.api.cli",
        "run",
        "fig7",
        "--models",
        model,
        "--quiet",
    ]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True, capture_output=True)
        best = min(best, time.perf_counter() - start)
    return best


def _time_warm_single(
    service: ExperimentService, model: str, repeats: int
) -> float:
    """Best-of-``repeats`` warm single-request latency (hot cache disabled)."""
    request = RunRequest("fig7", models=(model,))
    best = float("inf")
    for _ in range(repeats):
        outcome = service.submit(request)
        best = min(best, outcome.latency_s)
    return best


def _throughput(
    service: ExperimentService, concurrency: int, total_requests: int
) -> Dict[str, float]:
    """Requests/second and coalesce ratio at one concurrency level.

    ``concurrency`` client threads issue ``total_requests`` requests
    overall, cycling through every registered workload and all four
    mergeable model-parameterised experiments so consecutive requests are
    distinct (no hot cache to hide behind -- it is disabled) yet still
    coalescible when they queue up behind the same dispatch.
    """
    models = list_workloads()
    requests = [
        RunRequest("fig7", models=(models[index % len(models)],))
        for index in range(total_requests)
    ]
    before = service.snapshot()["counters"]
    errors: List[Exception] = []
    cursor = {"next": 0}
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(requests):
                    return
                cursor["next"] = index + 1
            try:
                service.submit(requests[index])
            except Exception as error:  # pragma: no cover - report and fail
                errors.append(error)
                return

    threads = [
        threading.Thread(target=worker, name=f"bench-client-{index}")
        for index in range(concurrency)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise AssertionError(f"serve request failed under load: {errors[0]}")
    after = service.snapshot()["counters"]
    batches = after.get("batches_total", 0) - before.get("batches_total", 0)
    batched = after.get("batched_requests_total", 0) - before.get(
        "batched_requests_total", 0
    )
    return {
        "requests": total_requests,
        "elapsed_s": elapsed,
        "requests_per_s": total_requests / elapsed,
        "coalesce_ratio": (batched / batches) if batches else 0.0,
    }


def run_benchmark(
    model: str,
    concurrency_levels: Sequence[int],
    total_requests: int,
    repeats: int,
) -> Dict[str, object]:
    """Benchmark the daemon and return the report payload."""
    cold_s = _time_cold_process(model, repeats)
    config = ServeConfig(hot_cache_size=0)
    with ExperimentService(config) as service:
        service.submit(RunRequest("fig7", models=(model,)))  # warm the session
        warm_s = _time_warm_single(service, model, repeats)
        throughput = {
            str(level): _throughput(service, level, total_requests)
            for level in concurrency_levels
        }
    return {
        "benchmark": "serve",
        **bench_metadata(),
        "model": model,
        "repeats": repeats,
        "cold_process_s": cold_s,
        "warm_single_s": warm_s,
        "warm_speedup_vs_cold": cold_s / warm_s,
        "throughput": throughput,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--model", default="alexnet", metavar="MODEL",
        help="workload of the single-request latency probe",
    )
    parser.add_argument(
        "--concurrency", nargs="+", type=int,
        default=list(CONCURRENCY_LEVELS), metavar="N",
        help="client-thread counts to drive the throughput probe with",
    )
    parser.add_argument(
        "--requests", type=int, default=64, metavar="N",
        help="total requests issued at each concurrency level",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions for the latency probes (best-of reported)",
    )
    parser.add_argument(
        "--output", default="BENCH_serve.json", metavar="PATH",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.repeats <= 0:
        parser.error("--repeats must be positive")
    if args.requests <= 0:
        parser.error("--requests must be positive")
    if any(level <= 0 for level in args.concurrency):
        parser.error("--concurrency levels must be positive")

    report = run_benchmark(
        args.model, args.concurrency, args.requests, args.repeats
    )
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"cold process : {report['cold_process_s'] * 1e3:>10.1f} ms")
    print(f"warm request : {report['warm_single_s'] * 1e3:>10.1f} ms")
    print(
        f"warm vs cold : {report['warm_speedup_vs_cold']:>10.1f}x "
        f"on {report['cpu_count']} CPU(s)"
    )
    print(f"{'clients':<10}{'req/s':>10}{'coalesce':>10}")
    for level, entry in report["throughput"].items():
        print(
            f"{level:<10}{entry['requests_per_s']:>10.1f}"
            f"{entry['coalesce_ratio']:>10.2f}"
        )
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
