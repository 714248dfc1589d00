"""repro.serve -- long-lived experiment service with request coalescing.

Every ``repro run`` invocation pays process startup, registry construction
and workload profiling before its first simulated cycle.  This package
keeps all of that warm in one long-lived daemon:

* :class:`~repro.serve.service.ExperimentService` -- the thread-safe core
  used by the HTTP façade, the CLI, tests and benchmarks: warm
  per-(config, seed, engine) :class:`~repro.api.experiment.Experiment`
  sessions, an admission-controlled queue with per-request deadlines and
  bounded backpressure, and one dispatch thread that merges compatible
  concurrent requests into single vectorized simulator passes with results
  byte-identical to solo dispatch;
* :mod:`repro.serve.http` -- the stdlib-only HTTP transport
  (``POST /v1/run``, ``POST /v1/sweep``, ``GET /v1/metrics``,
  ``GET /v1/health``), started by ``repro serve``;
* :class:`~repro.serve.cache.HotResultCache` -- in-memory TTL/LRU result
  cache layered over the sweep service's content-hash disk cache;
* :class:`~repro.serve.metrics.MetricsRegistry` -- live counters, gauges
  and latency percentiles behind ``GET /v1/metrics``.

See ``docs/serving.md`` for the architecture and endpoint reference.
"""

from .cache import HotResultCache
from .http import ServeHTTPServer, make_server
from .metrics import LatencyWindow, MetricsRegistry
from .service import (
    DeadlineExceededError,
    ExperimentService,
    QueueFullError,
    RequestValidationError,
    RunFailedError,
    RunOutcome,
    RunRequest,
    ServeConfig,
    ServeError,
    ServiceClosedError,
)

__all__ = [
    "ServeError",
    "RequestValidationError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServiceClosedError",
    "RunFailedError",
    "ServeConfig",
    "RunRequest",
    "RunOutcome",
    "ExperimentService",
    "HotResultCache",
    "LatencyWindow",
    "MetricsRegistry",
    "ServeHTTPServer",
    "make_server",
]
