"""Content-addressed result cache for the online scoring service.

The cache maps content hashes (see :mod:`repro.serving.requests`) to
scores.  Because the key covers the pose geometry, the binding site and
the model weights, a hit is always safe to serve — there is no
invalidation protocol beyond LRU capacity eviction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """A thread-safe LRU cache of ``content_key -> score``."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, float] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> float | None:
        """Return the cached score for ``key`` (refreshing recency) or None."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
            return None

    def put(self, key: str, score: float) -> None:
        """Insert (or refresh) a score, evicting the LRU entry when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = float(score)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )

    # ------------------------------------------------------------------ #
    def items(self) -> list[tuple[str, float]]:
        """LRU-to-MRU snapshot of the cache contents."""
        with self._lock:
            return list(self._entries.items())

