"""``repro serve`` with the benchmark's tracer installed, for traced runs.

Usage (from the root of a checkout)::

    python3 perfbench/daemon.py SPANS.json serve [repro serve options...]

The tracer starts disabled, so set-up and warm-up run untraced.  SIGUSR1
turns it on and prints ``perfbench: tracing on``.  When the daemon drains
and exits (SIGTERM), every recorded span is written to ``SPANS.json`` as a
list of ``[id, parent, name, start, end, thread, work, tag]`` rows; start
and end are ``time.perf_counter()`` readings.
"""

from __future__ import annotations

import json
import os
import signal
import sys

from common import use_checkout_sources
from tracer import Tracer


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    use_checkout_sources()
    tracer = Tracer().install()
    tracer.enabled = False

    def _enable(signum: int, frame: object) -> None:
        tracer.enabled = True
        os.write(1, b"perfbench: tracing on\n")

    signal.signal(signal.SIGUSR1, _enable)
    from repro.api.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.enabled = False
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(
                [list(span[:7]) + [repr(span[7])] for span in tracer.take()],
                handle,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
