"""Serving-side observability: latency percentiles, throughput, occupancy.

The online service treats sustained requests/s as a first-class contract
(the same way the paper's Table 7 treats poses/s for the batch jobs), so
every completed request feeds lock-protected accumulators that can
produce a snapshot at any time without stopping traffic.

Since the ``repro.telemetry`` refactor the accumulators are the central
registry's primitives: counters for the admission ledger and a
**mergeable streaming histogram** for latencies and batch sizes — the
histogram never truncates, so percentiles describe *all* traffic, not
just the first ``max_samples`` requests the old bounded reservoir kept.
Handing the service a shared :class:`~repro.telemetry.MetricsRegistry`
(``registry=``) absorbs every serving metric into that registry's
``snapshot()`` alongside the rest of the pipeline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.telemetry.registry import MetricsRegistry


@dataclass
class MetricsSnapshot:
    """Point-in-time summary of service behaviour since the last reset.

    ``requests_per_second`` is the *burst-window* rate — completions over
    the span from reset to the **last completion** — which describes
    sustained throughput while traffic flows but freezes once it stops.
    ``requests_per_second_lifetime`` divides by wall time up to the
    snapshot instant instead, so a service that idles after a burst
    reports an honestly decaying lifetime rate rather than the frozen
    burst figure.
    """

    submitted: int
    completed: int
    failed: int
    rejected: int
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    requests_per_second: float
    requests_per_second_lifetime: float
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    #: median head-of-line queue wait of the online batches: from the
    #: oldest request entering the batcher to its batch being cut
    queue_wait_p50_ms: float
    num_batches: int
    mean_batch_size: float
    batch_occupancy: float
    elapsed_s: float
    lifetime_s: float

    def as_dict(self) -> dict[str, float]:
        return {key: float(value) for key, value in vars(self).items()}


class ServingMetrics:
    """Thread-safe counters and streaming histograms for the scoring service.

    Parameters
    ----------
    max_batch_size:
        The batcher's capacity, used to convert observed batch sizes into
        an occupancy fraction (1.0 = every batch left the batcher full).
    registry:
        Optional shared :class:`MetricsRegistry` to register the serving
        metrics on (under ``serving.*`` names); by default each instance
        owns a private registry, so independent services never share
        counters.
    prefix:
        Metric-name prefix inside the registry.
    """

    #: latency histogram resolution: 0.1 µs floor, ~2% percentile error
    LATENCY_HISTOGRAM = dict(min_value=1e-7, max_value=1e5, growth=1.02)
    #: batch sizes are small integers; 1-count floor, ~5% error
    BATCH_HISTOGRAM = dict(min_value=1.0, max_value=65536.0, growth=1.05)

    def __init__(
        self,
        max_batch_size: int = 1,
        registry: MetricsRegistry | None = None,
        prefix: str = "serving",
    ) -> None:
        self.max_batch_size = max(int(max_batch_size), 1)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.prefix = prefix
        self._submitted = self.registry.counter(f"{prefix}.submitted")
        self._completed = self.registry.counter(f"{prefix}.completed")
        self._failed = self.registry.counter(f"{prefix}.failed")
        self._rejected = self.registry.counter(f"{prefix}.rejected")
        self._cache_hits = self.registry.counter(f"{prefix}.cache_hits")
        self._cache_misses = self.registry.counter(f"{prefix}.cache_misses")
        self._latency = self.registry.histogram(f"{prefix}.latency_s", **self.LATENCY_HISTOGRAM)
        self._batch_sizes = self.registry.histogram(f"{prefix}.batch_size", **self.BATCH_HISTOGRAM)
        self._queue_wait = self.registry.histogram(f"{prefix}.queue_wait_s", **self.LATENCY_HISTOGRAM)
        self._lock = threading.Lock()
        self.reset()

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Zero this service's own metrics (not unrelated registry entries)."""
        for handle in (
            self._submitted,
            self._completed,
            self._failed,
            self._rejected,
            self._cache_hits,
            self._cache_misses,
            self._latency,
            self._batch_sizes,
            self._queue_wait,
        ):
            handle.reset()
        with self._lock:
            self._started = time.perf_counter()
            self._last_completion = self._started

    # ------------------------------------------------------------------ #
    def record_submission(self, cache_hit: bool) -> None:
        self._submitted.inc()
        if cache_hit:
            self._cache_hits.inc()
        else:
            self._cache_misses.inc()

    def record_rejection(self) -> None:
        self._rejected.inc()

    def record_failure(self) -> None:
        """Count one admitted request whose batch errored (no completion).

        Keeps the admission ledger closed: every admitted request ends up
        in exactly one of ``completed`` or ``failed``, so
        ``submitted == completed + failed`` once traffic drains.
        """
        self._failed.inc()

    def record_completion(self, latency_s: float) -> None:
        self._completed.inc()
        self._latency.observe(max(float(latency_s), 0.0))
        with self._lock:
            self._last_completion = time.perf_counter()

    def record_batch(self, batch_size: int) -> None:
        self._batch_sizes.observe(float(batch_size))

    def record_queue_wait(self, wait_s: float) -> None:
        """Observe how long an online batch's oldest request was queued."""
        self._queue_wait.observe(wait_s)

    # ------------------------------------------------------------------ #
    @property
    def cache_hit_rate(self) -> float:
        hits = self._cache_hits.value
        total = hits + self._cache_misses.value
        return hits / total if total else 0.0

    @staticmethod
    def _finite(value: float, default: float = 0.0) -> float:
        return float(value) if value == value else default  # NaN-safe

    def snapshot(self) -> MetricsSnapshot:
        """Summarize everything observed since construction/:meth:`reset`."""
        now = time.perf_counter()
        with self._lock:
            burst = max(self._last_completion - self._started, 1e-9)
            lifetime = max(now - self._started, 1e-9)
        submitted = self._submitted.value
        completed = self._completed.value
        hits = self._cache_hits.value
        misses = self._cache_misses.value
        total_lookups = hits + misses
        latency = self._latency.summary()
        batches = self._batch_sizes.summary()
        mean_batch = self._finite(batches["mean"])
        return MetricsSnapshot(
            submitted=submitted,
            completed=completed,
            failed=self._failed.value,
            rejected=self._rejected.value,
            cache_hits=hits,
            cache_misses=misses,
            cache_hit_rate=hits / total_lookups if total_lookups else 0.0,
            requests_per_second=completed / burst,
            requests_per_second_lifetime=completed / lifetime,
            latency_p50_ms=self._finite(latency["p50"]) * 1e3,
            latency_p90_ms=self._finite(latency["p90"]) * 1e3,
            latency_p99_ms=self._finite(latency["p99"]) * 1e3,
            latency_mean_ms=self._finite(latency["mean"]) * 1e3,
            queue_wait_p50_ms=self._finite(self._queue_wait.quantile(0.5)) * 1e3,
            num_batches=int(batches["count"]),
            mean_batch_size=mean_batch,
            batch_occupancy=mean_batch / self.max_batch_size,
            elapsed_s=burst,
            lifetime_s=lifetime,
        )
