"""A fixed-memory streaming histogram for latency percentiles.

:class:`StreamingHistogram` records non-negative observations into
logarithmically-spaced buckets (HDR-histogram style), so memory is a
fixed few KB however many observations arrive — unlike the truncating
reservoir it replaces in :mod:`repro.serving.metrics`, whose percentiles
silently described only the first ``max_samples`` requests.

Guarantees (pinned by the property suite in ``tests/test_telemetry.py``):

* **bounded quantile error** — for a true (nearest-rank) quantile ``t``,
  the estimate ``e`` satisfies ``t <= e <= t * growth`` whenever
  ``t >= min_value``, and ``t <= e <= min_value`` below the floor;
* **order invariance** — bucket counts are integers and the total is a
  Shewchuk-exact sum, so every observable (counts, sum, mean, min, max,
  every quantile) is independent of the order values arrive in;
* **exact extremes** — ``min``/``max``/``count``/``sum`` are tracked
  exactly, not bucketed.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.telemetry.exact import ExactSum

__all__ = ["StreamingHistogram"]


class StreamingHistogram:
    """Fixed-memory histogram of non-negative values in logarithmic buckets.

    Parameters
    ----------
    min_value:
        Resolution floor: values below it land in the underflow bucket
        and quantiles there are reported as at most ``min_value``.
    max_value:
        Top of the bucketed range; larger values clamp into the last
        bucket (their exact maximum is still tracked).
    growth:
        Geometric bucket-width factor; the relative quantile error bound.
        The default (1.02) gives ~2% percentiles over 16 decades in
        ~1900 buckets.
    """

    def __init__(self, min_value: float = 1e-9, max_value: float = 1e7, growth: float = 1.02) -> None:
        if not (min_value > 0 and max_value > min_value):
            raise ValueError("need 0 < min_value < max_value")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        #: bucket 0 = underflow (v < min_value); bucket i >= 1 covers
        #: [min_value * growth**(i-1), min_value * growth**i)
        self.num_buckets = int(math.ceil(math.log(self.max_value / self.min_value) / self._log_growth)) + 2
        self._counts = np.zeros(self.num_buckets, dtype=np.int64)
        self._count = 0
        self._sum = ExactSum()
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _bucket_index(self, value: float) -> int:
        if value < self.min_value:
            return 0
        index = int(math.log(value / self.min_value) / self._log_growth) + 1
        return min(index, self.num_buckets - 1)

    def _bucket_upper_edge(self, index: int) -> float:
        if index <= 0:
            return self.min_value
        return self.min_value * self.growth**index

    # ------------------------------------------------------------------ #
    def observe(self, value: float) -> None:
        """Record one observation (must be finite and non-negative)."""
        value = float(value)
        if math.isnan(value) or value < 0 or math.isinf(value):
            raise ValueError(f"histogram observations must be finite and non-negative, got {value}")
        index = self._bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum.add(value)
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    # ------------------------------------------------------------------ #
    # ------------------------------------------------------------------ #
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        """Correctly-rounded (order-invariant) sum of all observations."""
        with self._lock:
            return self._sum.value

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum.value / self._count if self._count else float("nan")

    @property
    def minimum(self) -> float:
        with self._lock:
            return self._min if self._count else float("nan")

    @property
    def maximum(self) -> float:
        with self._lock:
            return self._max if self._count else float("nan")

    # ------------------------------------------------------------------ #
    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate with the bounded-error guarantee.

        ``q`` in [0, 1]; returns NaN on an empty histogram.  The estimate
        is the upper edge of the bucket holding the ``ceil(q * count)``-th
        smallest observation, clamped into the exact observed
        ``[min, max]`` — so it can never undershoot the true quantile nor
        overshoot it by more than one bucket width.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return float("nan")
            rank = max(int(math.ceil(q * self._count)), 1)
            cumulative = 0
            index = self.num_buckets - 1
            for i, bucket_count in enumerate(self._counts):
                cumulative += int(bucket_count)
                if cumulative >= rank:
                    index = i
                    break
            estimate = self._bucket_upper_edge(index)
            return min(max(estimate, self._min), self._max)

    def percentile(self, p: float) -> float:
        """Convenience wrapper: ``percentile(99) == quantile(0.99)``."""
        return self.quantile(p / 100.0)

    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, float]:
        """Snapshot of the standard latency summary statistics."""
        return {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def reset(self) -> None:
        with self._lock:
            self._counts[:] = 0
            self._count = 0
            self._sum = ExactSum()
            self._min = math.inf
            self._max = -math.inf

    # ------------------------------------------------------------------ #
    # pickling (and copy.deepcopy): a lock cannot travel, so the copy
    # gets a fresh one
    def __getstate__(self) -> dict:
        with self._lock:
            state = {k: v for k, v in self.__dict__.items() if k != "_lock"}
            state["_counts"] = self._counts.copy()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
