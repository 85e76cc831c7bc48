"""Central metrics registry: counters, gauges, histograms, probes.

One :class:`MetricsRegistry` per run (or per long-lived service) absorbs
what used to be scattered across ``serving/metrics.py`` accumulators,
the feature cache's hit/miss ledger, streaming shard/retry counters and
docking kernel batch stats — and exposes all of it behind one
:meth:`MetricsRegistry.snapshot` call, which is what the benchmark
artifacts and the run record serialize.

Metric handles are get-or-create by name (creation is idempotent, so
independent components can share a metric), individually lock-protected
and cheap enough for per-batch hot paths.  *Probes* are registered
callables sampled lazily at snapshot time — the natural fit for
components that already maintain their own ledgers (e.g.
:meth:`repro.featurize.cache.FeatureCache.stats`).
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping

from repro.telemetry.histogram import StreamingHistogram

__all__ = ["Counter", "Gauge", "MetricsRegistry"]


class Counter:
    """A monotonically-increasing thread-safe counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter '{self.name}' cannot decrease (amount={amount})")
        with self._lock:
            self._value += int(amount)

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A thread-safe last-value gauge (supports add for accumulation)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class MetricsRegistry:
    """Named counters, gauges, streaming histograms and snapshot probes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, StreamingHistogram] = {}
        self._probes: dict[str, Callable[[], Mapping]] = {}

    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        """Get-or-create the counter named ``name``."""
        with self._lock:
            handle = self._counters.get(name)
            if handle is None:
                handle = self._counters[name] = Counter(name)
            return handle

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the gauge named ``name``."""
        with self._lock:
            handle = self._gauges.get(name)
            if handle is None:
                handle = self._gauges[name] = Gauge(name)
            return handle

    def histogram(self, name: str, **config: float) -> StreamingHistogram:
        """Get-or-create the histogram named ``name``.

        ``config`` (``min_value`` / ``max_value`` / ``growth``) is only
        honoured at creation; later callers share the existing instance.
        """
        with self._lock:
            handle = self._histograms.get(name)
            if handle is None:
                handle = self._histograms[name] = StreamingHistogram(**config)
            return handle

    def register_probe(self, name: str, probe: Callable[[], Mapping]) -> None:
        """Register (or replace) a callable sampled at snapshot time.

        The probe must return a mapping of JSON-serializable values; it
        appears under ``snapshot()["probes"][name]``.
        """
        with self._lock:
            self._probes[name] = probe

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """One point-in-time document of every registered metric."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            probes = dict(self._probes)
        return {
            "counters": {name: handle.value for name, handle in sorted(counters.items())},
            "gauges": {name: handle.value for name, handle in sorted(gauges.items())},
            "histograms": {name: handle.summary() for name, handle in sorted(histograms.items())},
            "probes": {name: dict(probe()) for name, probe in sorted(probes.items())},
        }

    def reset(self) -> None:
        """Reset every counter, gauge and histogram (probes are external state)."""
        with self._lock:
            handles = list(self._counters.values()) + list(self._gauges.values())
            histograms = list(self._histograms.values())
        for handle in handles:
            handle.reset()
        for histogram in histograms:
            histogram.reset()
