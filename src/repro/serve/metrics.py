"""Live metrics of the experiment service: counters, gauges, latencies.

The serve daemon is long-lived, so its health must be observable without
stopping it: every admission decision, batch dispatch and cache probe is
recorded here and exposed as one JSON-safe snapshot (``GET /v1/metrics`` on
the HTTP façade).  The registry is deliberately tiny and dependency-free --
plain counters, gauges and bounded-reservoir latency histograms behind one
lock -- because it is updated from both the dispatch thread and the HTTP
handler threads.

Derived quantities (coalesce ratio, cache hit rate, latency percentiles)
are computed at snapshot time from the raw counts, so recording stays O(1)
per event.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Optional

__all__ = ["LatencyWindow", "MetricsRegistry"]

#: Samples retained per latency window; percentiles are computed over the
#: most recent window, which is what a live dashboard wants anyway.
_WINDOW_SIZE = 1024


def _percentile(samples: list, fraction: float) -> float:
    """Nearest-rank percentile of a sorted sample list."""
    if not samples:
        return 0.0
    rank = min(len(samples) - 1, max(0, round(fraction * (len(samples) - 1))))
    return samples[rank]


class LatencyWindow:
    """Bounded reservoir of recent duration samples with percentile reads.

    Keeps the most recent :data:`_WINDOW_SIZE` samples in a ring buffer
    plus lifetime count/sum/max, so ``p50``/``p99`` reflect current service
    behaviour while totals keep accumulating.  Not thread-safe on its own;
    the owning :class:`MetricsRegistry` serialises access.
    """

    def __init__(self, window: int = _WINDOW_SIZE) -> None:
        self._samples: Deque[float] = deque(maxlen=window)
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        """Add one duration sample (in seconds)."""
        seconds = float(seconds)
        self._samples.append(seconds)
        self.count += 1
        self.total_s += seconds
        self.max_s = max(self.max_s, seconds)

    def snapshot(self) -> Dict[str, float]:
        """Count, mean and p50/p99/max of the recent window (JSON-safe)."""
        ordered = sorted(self._samples)
        return {
            "count": self.count,
            "mean_s": (self.total_s / self.count) if self.count else 0.0,
            "p50_s": _percentile(ordered, 0.50),
            "p99_s": _percentile(ordered, 0.99),
            "max_s": self.max_s,
        }


class MetricsRegistry:
    """Thread-safe counters/gauges/latency windows of one service instance.

    Metric names are free-form strings; the service uses a fixed vocabulary
    (``requests_total``, ``batches_total``, ``cache_hits``, ...) documented
    in ``docs/serving.md``.  :meth:`snapshot` adds the derived ratios a
    dashboard wants -- coalesce ratio (requests dispatched per batch), hot
    cache hit rate and error totals -- so scrapers never have to re-derive
    them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._latencies: Dict[str, LatencyWindow] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the instantaneous gauge ``name`` to ``value``."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration sample into the latency window ``name``."""
        with self._lock:
            window = self._latencies.get(name)
            if window is None:
                window = self._latencies[name] = LatencyWindow()
            window.record(seconds)

    def counter(self, name: str) -> int:
        """Current value of the counter ``name`` (0 when never touched)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, object]:
        """One JSON-safe view: counters, gauges, latencies, derived ratios.

        Derived entries:

        * ``coalesce_ratio`` -- batched requests per dispatched batch
          (1.0 means no coalescing happened; higher is better);
        * ``cache_hit_rate`` -- hot-cache hits over hot-cache probes;
        * ``errors_total`` -- rejected + timed out + failed requests.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            latencies = {
                name: window.snapshot()
                for name, window in self._latencies.items()
            }
        batches = counters.get("batches_total", 0)
        batched = counters.get("batched_requests_total", 0)
        hits = counters.get("cache_hits", 0)
        probes = hits + counters.get("cache_misses", 0)
        derived = {
            "coalesce_ratio": (batched / batches) if batches else 0.0,
            "cache_hit_rate": (hits / probes) if probes else 0.0,
            "errors_total": (
                counters.get("rejected_total", 0)
                + counters.get("timeout_total", 0)
                + counters.get("failed_total", 0)
            ),
        }
        return {
            "counters": counters,
            "gauges": gauges,
            "latency": latencies,
            "derived": derived,
        }
