"""Content-addressed cache of featurized complexes.

The cache mirrors the serving result cache's design
(:mod:`repro.serving.cache`): entries are keyed by a deterministic
content hash — here *pose + binding site + featurizer configuration*
(see :func:`feature_key`) — so a hit is always safe to serve and no
invalidation protocol beyond LRU capacity eviction is needed.  Unlike
the serving result cache the key does **not** include model weights:
features are model-independent, so a model swap that invalidates every
cached *score* still reuses every cached *feature*.

Entries are ``(voxel, graph)`` payloads.  They are treated as immutable:
consumers collate them into fresh batch arrays and never write into the
cached tensors.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.chem.complexes import ProteinLigandComplex
from repro.chem.digest import molecule_digest, site_digest

FeatureEntry = tuple[np.ndarray, dict]


def featurizer_config_digest(voxel_config, graph_config) -> str:
    """Deterministic hex digest of a (voxel config, graph config) pair.

    Any change to the grid geometry, channel set, Gaussian widths or
    graph thresholds changes the digest, so stale features can never be
    served after a configuration change.
    """
    hasher = hashlib.sha256()
    for config in (voxel_config, graph_config):
        hasher.update(type(config).__name__.encode())
        for name in sorted(vars(config)):
            hasher.update(f"|{name}={vars(config)[name]!r}".encode())
    return hasher.hexdigest()


def feature_key(complex_: ProteinLigandComplex, config_digest: str) -> str:
    """Content-addressed feature-cache key: pose + binding site + config."""
    hasher = hashlib.sha256()
    hasher.update(site_digest(complex_.site).encode())
    hasher.update(molecule_digest(complex_.ligand).encode())
    hasher.update(str(int(complex_.pose_id)).encode())
    hasher.update(config_digest.encode())
    return hasher.hexdigest()


def entry_nbytes(voxel: np.ndarray, graph: dict) -> int:
    """Payload size of one cache entry in bytes (voxel + all graph tensors)."""
    total = int(voxel.nbytes)

    def visit(value) -> None:
        nonlocal total
        if isinstance(value, np.ndarray):
            total += int(value.nbytes)
        elif isinstance(value, dict):
            for child in value.values():
                visit(child)

    visit(graph)
    return total


@dataclass
class FeatureCacheStats:
    """Counters of one :class:`FeatureCache` instance."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0
    bytes: int = 0
    max_bytes: int | None = None

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def ledger_closed(self) -> bool:
        """Every lookup is accounted for as exactly one hit or miss."""
        return self.lookups == self.hits + self.misses


class FeatureCache:
    """A thread-safe LRU cache of ``feature_key -> (voxel, graph)``.

    Bounded two ways: ``capacity`` caps the entry count, and
    ``max_bytes`` caps the total tensor payload — entries are full
    float64 voxel grids whose size grows cubically with ``grid_dim``
    (a paper-scale ``grid_dim=48`` full-channel voxel alone is ~16 MB),
    so an entry-count bound on its own does not bound memory.  Both
    bounds evict in LRU order; the most recent entry always stays, even
    when it alone exceeds ``max_bytes``.
    """

    def __init__(self, capacity: int = 1024, max_bytes: int | None = None) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive when set, got {max_bytes}")
        self.capacity = int(capacity)
        self.max_bytes = int(max_bytes) if max_bytes is not None else None
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, FeatureEntry] = OrderedDict()
        self._entry_bytes: dict[str, int] = {}
        self._bytes = 0
        self._lookups = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    # pickling: only the cache *configuration* travels with a pickled
    # featurizer — entries are per-process working state (full voxel
    # grids; shipping them would dwarf everything else) and the hit/miss
    # ledger describes this process's traffic.  A copy warms its own cache.
    def __getstate__(self) -> dict:
        return {"capacity": self.capacity, "max_bytes": self.max_bytes}

    def __setstate__(self, state: dict) -> None:
        self.__init__(capacity=state["capacity"], max_bytes=state["max_bytes"])

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> FeatureEntry | None:
        """Return the cached entry for ``key`` (refreshing recency) or None."""
        with self._lock:
            self._lookups += 1
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
            return None

    def put(self, key: str, voxel: np.ndarray, graph: dict) -> None:
        """Insert (or refresh) an entry, evicting LRU entries over either bound."""
        nbytes = entry_nbytes(voxel, graph)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._bytes -= self._entry_bytes[key]
            self._entries[key] = (voxel, graph)
            self._entry_bytes[key] = nbytes
            self._bytes += nbytes
            while len(self._entries) > self.capacity or (
                self.max_bytes is not None
                and self._bytes > self.max_bytes
                and len(self._entries) > 1
            ):
                evicted_key, _ = self._entries.popitem(last=False)
                self._bytes -= self._entry_bytes.pop(evicted_key)
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
            self._entry_bytes.clear()
            self._bytes = 0

    def stats(self) -> FeatureCacheStats:
        with self._lock:
            return FeatureCacheStats(
                lookups=self._lookups,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
                bytes=self._bytes,
                max_bytes=self.max_bytes,
            )

    def items(self) -> list[tuple[str, FeatureEntry]]:
        """LRU-to-MRU snapshot of the cache contents."""
        with self._lock:
            return list(self._entries.items())
