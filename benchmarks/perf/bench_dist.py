"""Micro-benchmark: the distributed broker transport vs the serial reference.

Times a **cold-cache** fig7 sweep three ways -- the ``serial`` transport
(the byte-identity reference), the ``broker`` transport with zero
attached workers (the coordinator executes everything itself, so this
measures pure coordination overhead: publish, lease files, fragment
round-trips), and the ``broker`` transport driving a real fleet of
``repro worker`` subprocesses (the coordinator reduced to pure
coordination).  Before any timing, every variant's ``SweepResult`` must
serialise byte-identically to serial -- including a recovery run where a
worker is SIGKILLed mid-shard and its shard requeued -- otherwise the
benchmark raises instead of reporting.

The broker's win scales with core count and per-shard work; on a
single-core container it roughly ties serial (the coordination overhead
is the price of crash-tolerance), so ``cpu_count`` is recorded to keep
snapshots comparable.  Results are written to ``BENCH_dist.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_dist.py \
        [--models alexnet ...] [--shards 4] [--workers 2] \
        [--repeats 3] [--output BENCH_dist.json]

See ``docs/distributed.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import repro
from bench_meta import bench_metadata
from repro.api import run_sweep

#: The grid every transport is timed on.
EXPERIMENTS = ("fig7",)

#: Default fig7 workloads: enough points for the fleet to matter.
DEFAULT_MODELS = ("alexnet", "mobilenetv2", "resnet18", "vgg19")

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: A plain worker process: attach to argv[1], execute until STOP.
_WORKER_SNIPPET = (
    "import sys\n"
    "from repro.dist.worker import WorkerConfig, run_worker\n"
    "run_worker(WorkerConfig(sweep_dir=sys.argv[1], worker_id=sys.argv[2],"
    " attach_timeout_s=120.0))\n"
)

#: A worker that SIGKILLs itself the moment it starts executing a shard
#: (run_worker binds run_shard lazily, so patching the module suffices).
_VICTIM_SNIPPET = (
    "import os, signal, sys\n"
    "import repro.api.sweep as sweep_module\n"
    "def lethal(shard):\n"
    "    os.kill(os.getpid(), signal.SIGKILL)\n"
    "sweep_module.run_shard = lethal\n"
    "from repro.dist.worker import WorkerConfig, run_worker\n"
    "run_worker(WorkerConfig(sweep_dir=sys.argv[1], worker_id=sys.argv[2],"
    " attach_timeout_s=120.0))\n"
)


#: A healthy worker that attaches only once the victim (PID argv[3]) is
#: dead, so the victim deterministically claims -- and loses -- a shard.
_SURVIVOR_SNIPPET = (
    "import os, sys, time\n"
    "while True:\n"
    "    try:\n"
    "        os.kill(int(sys.argv[3]), 0)\n"
    "    except ProcessLookupError:\n"
    "        break\n"
    "    time.sleep(0.05)\n"
    + _WORKER_SNIPPET
)


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = _SRC_DIR if not path else _SRC_DIR + os.pathsep + path
    return env


def _spawn_worker(
    snippet: str, sweep_dir: str, worker_id: str, *extra: str
) -> subprocess.Popen:
    process = subprocess.Popen(
        [sys.executable, "-c", snippet, sweep_dir, worker_id, *extra],
        env=_worker_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    # Reap the worker the moment it exits: a SIGKILLed child left as a
    # zombie would still look alive to the coordinator's PID probe.
    threading.Thread(target=process.wait, daemon=True).start()
    return process


def _run_serial(models: Sequence[str], shards: int):
    return run_sweep(
        experiments=EXPERIMENTS, models=models, transport="serial",
        shards=shards,
    )


def _run_broker_solo(models: Sequence[str], shards: int):
    with tempfile.TemporaryDirectory(prefix="bench-dist-") as sweep_dir:
        return run_sweep(
            experiments=EXPERIMENTS, models=models, transport="broker",
            sweep_dir=sweep_dir, shards=shards,
        )


def _run_broker_fleet(models: Sequence[str], shards: int, workers: int):
    with tempfile.TemporaryDirectory(prefix="bench-dist-") as sweep_dir:
        fleet = [
            _spawn_worker(_WORKER_SNIPPET, sweep_dir, f"bench-worker-{i}")
            for i in range(workers)
        ]
        try:
            return run_sweep(
                experiments=EXPERIMENTS, models=models, transport="broker",
                sweep_dir=sweep_dir, shards=shards,
                transport_options={"coordinator_executes": False},
            )
        finally:
            for process in fleet:
                if process.wait(timeout=120) != 0:
                    raise AssertionError(
                        f"worker exited {process.returncode}"
                    )


def _run_sigkill_recovery(models: Sequence[str], shards: int):
    """One worker dies mid-shard; the fleet must recover and finish.

    The coordinator only coordinates, so the victim's shard can be
    finished by nobody but the survivor, which attaches after the victim
    died: however fast the shards run, the victim always claims one.
    """
    with tempfile.TemporaryDirectory(prefix="bench-dist-") as sweep_dir:
        victim = _spawn_worker(_VICTIM_SNIPPET, sweep_dir, "bench-victim")
        survivor = _spawn_worker(
            _SURVIVOR_SNIPPET, sweep_dir, "bench-survivor", str(victim.pid)
        )
        try:
            with warnings.catch_warnings():
                # The lost-worker requeue warning is this run's whole point.
                warnings.simplefilter("ignore", RuntimeWarning)
                result = run_sweep(
                    experiments=EXPERIMENTS, models=models,
                    transport="broker", sweep_dir=sweep_dir, shards=shards,
                    transport_options={"coordinator_executes": False},
                )
        finally:
            victim.wait(timeout=120)
            survivor.wait(timeout=120)
        if victim.returncode != -9:
            raise AssertionError(
                f"victim was expected to die by SIGKILL, exited "
                f"{victim.returncode}"
            )
        if survivor.returncode != 0:
            raise AssertionError(f"survivor exited {survivor.returncode}")
        return result


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(
    models: Sequence[str], shards: int, workers: int, repeats: int
) -> Dict[str, object]:
    """Gate every variant on byte-identity, then time them."""
    reference = _run_serial(models, shards).to_json()
    for name, variant in (
        ("broker-solo", lambda: _run_broker_solo(models, shards)),
        ("broker-fleet", lambda: _run_broker_fleet(models, shards, workers)),
        ("sigkill-recovery", lambda: _run_sigkill_recovery(models, shards)),
    ):
        produced = variant().to_json()
        if produced != reference:
            raise AssertionError(
                f"{name} diverges from the serial reference; run "
                "tests/dist/test_broker.py for details"
            )
    serial_s = _best_of(lambda: _run_serial(models, shards), repeats)
    solo_s = _best_of(lambda: _run_broker_solo(models, shards), repeats)
    fleet_s = _best_of(
        lambda: _run_broker_fleet(models, shards, workers), repeats
    )
    return {
        "benchmark": "dist",
        "experiments": list(EXPERIMENTS),
        **bench_metadata(),
        "models": list(models),
        "shards": shards,
        "workers": workers,
        "repeats": repeats,
        "serial_s": serial_s,
        "broker_solo_s": solo_s,
        "broker_fleet_s": fleet_s,
        "broker_solo_overhead": solo_s / serial_s,
        "broker_fleet_speedup_vs_serial": serial_s / fleet_s,
        "byte_identical": True,
        "sigkill_recovery_byte_identical": True,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--models", nargs="+", default=list(DEFAULT_MODELS), metavar="MODEL",
        help="workloads of the fig7 grid (one sweep point per model)",
    )
    parser.add_argument(
        "--shards", type=int, default=4,
        help="target shard count handed to the planner",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker subprocesses in the fleet run",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per variant (best-of is reported)",
    )
    parser.add_argument(
        "--output", default="BENCH_dist.json", metavar="PATH",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.repeats <= 0:
        parser.error("--repeats must be positive")
    if args.workers <= 0:
        parser.error("--workers must be positive")

    report = run_benchmark(args.models, args.shards, args.workers, args.repeats)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"serial:        {report['serial_s'] * 1e3:10.1f} ms")
    print(
        f"broker solo:   {report['broker_solo_s'] * 1e3:10.1f} ms "
        f"({report['broker_solo_overhead']:.2f}x serial)"
    )
    print(
        f"broker fleet:  {report['broker_fleet_s'] * 1e3:10.1f} ms "
        f"({report['workers']} workers, "
        f"{report['broker_fleet_speedup_vs_serial']:.2f}x vs serial "
        f"on {report['cpu_count']} CPU(s))"
    )
    print("byte-identical: True (incl. SIGKILL mid-shard recovery)")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
