"""The repository benchmark: one command, every workload, every metric.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-dse --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``cold-dse`` -- cold Fig. 7 design-space sweep (``sweeps.py``);
* ``warm-resweep`` -- warm packed-store re-sweep plus a fresh slice
  (``sweeps.py``);
* ``serve-mix`` -- closed-loop keep-alive HTTP load on ``repro serve``
  (``serve.py``).

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` wraps the ``repro`` layers from outside (``tracer.py``) and
prints the per-layer metrics.  Every output is checked: sweep points
against the committed ``digests.json``, served results against
``Experiment(config, seed).run(...)``; a mismatch is a failed operation.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it stamps the run (git SHA,
package version, Python, nproc, seed, connection count).  A full report,
and the spans of a traced run, are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import List

import serve
import sweeps
from common import OUT, ROOT, stamp, use_checkout_sources
from tracer import span_records

WORKLOADS = {
    "cold-dse": sweeps.cold_dse,
    "warm-resweep": sweeps.warm_resweep,
    "serve-mix": serve.serve_mix,
}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=tuple(WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    trace = bool(args.trace)

    scratch = OUT / f"scratch-{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, trace, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    error_ratio = outcome.failed / max(outcome.attempted, 1)
    units = {
        entry["name"]: entry["unit"]
        for entry in spec["per_layer" if trace else "end_to_end"]
    }
    if trace:
        values = dict(outcome.per_layer, error_ratio=error_ratio)
    else:
        values = outcome.end_to_end
        missing = set(units) - set(values)
        if missing:
            raise RuntimeError(f"{args.workload} did not measure {sorted(missing)}")
    metrics = {
        # A layer the workload never enters reads 0.
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }

    connections = serve.connection_count() if args.workload == "serve-mix" else 0
    run_stamp = stamp(args.workload, args.seed, args.seconds, trace, connections)
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"report-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "stamp": run_stamp,
                "result": result,
                "error_ratio": error_ratio,
                "problems": outcome.problems,
                "samples_s": outcome.samples,
                "written": time.time(),
            },
            handle,
            indent=1,
        )
    if trace:
        with open(OUT / f"spans-{tag}.jsonl", "w", encoding="utf-8") as handle:
            for record in span_records(outcome.spans, outcome.origin):
                handle.write(json.dumps(record) + "\n")
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": run_stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
