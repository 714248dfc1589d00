"""Hot in-memory result cache of the experiment service (TTL + LRU).

The sweep service already has a content-hash *on-disk* cache
(``repro.api.sweep``); the serve daemon layers this in-process cache on top
of it so repeated requests -- the common case for a dashboard polling a
handful of configurations -- are answered without touching the disk or
the simulator.  The daemon keys it by
:meth:`repro.api.sweep.SweepPoint.input_key`, which hashes only the inputs
the experiment reads: requests that differ only in a configuration their
experiment ignores (``fig2b`` on two presets) share one entry, and the
daemon labels a hit with the requested configuration.  The disk cache
keeps the finer :meth:`~repro.api.sweep.SweepPoint.cache_key`.  The cache
itself is a plain key-value store and knows neither key.

Entries expire after a TTL (results are deterministic, but the TTL bounds
memory held for one-off requests and lets operators reason about staleness
after a redeploy) and are evicted least-recently-used beyond a capacity
bound.  The cache is thread-safe: the dispatch thread fills it while HTTP
handler threads probe it concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple

__all__ = ["HotResultCache"]


class HotResultCache:
    """Bounded, TTL-expiring, LRU-evicting in-memory result cache.

    Args:
        capacity: maximum retained entries; 0 disables the cache entirely
            (every :meth:`get` misses, every :meth:`put` is a no-op --
            useful for benchmarks that must exercise the batcher).
        ttl_s: seconds an entry stays servable after its last *write*;
            ``None`` disables expiry.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl_s: Optional[float] = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (or None to disable)")
        self.capacity = int(capacity)
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (expiry deadline or None, value); insertion order is LRU.
        self._entries: "OrderedDict[str, Tuple[Optional[float], Any]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        """Number of currently retained (possibly expired) entries."""
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[Any]:
        """The cached value of ``key``, or ``None`` on a miss.

        An expired entry is dropped and reported as a miss; a hit refreshes
        the entry's LRU position (but not its TTL).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            deadline, value = entry
            if deadline is not None and self._clock() >= deadline:
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            return value

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries beyond capacity."""
        if self.capacity == 0:
            return
        deadline = (
            self._clock() + self.ttl_s if self.ttl_s is not None else None
        )
        with self._lock:
            self._entries[key] = (deadline, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self, key: Optional[str] = None) -> int:
        """Drop one entry (or, with ``None``, all); returns the count dropped."""
        with self._lock:
            if key is None:
                count = len(self._entries)
                self._entries.clear()
                return count
            return 1 if self._entries.pop(key, None) is not None else 0
