"""Demand-driven micro-batching of queued scoring requests.

Online traffic arrives one request at a time, but the fusion models are
far more efficient on batches (one voxel stack, one batched graph).  The
micro-batcher bridges the two regimes: admitted requests accumulate in a
bounded queue, and the consumer takes them as batches.  A batch is cut
on demand — whenever the consumer asks for one, it gets everything
queued, up to ``max_batch_size`` — and never waits on a timer.  The
service asks only when a model replica is free, so an idle service
scores a lone request at once, while requests that arrive while every
replica is busy pile up and leave together as one batch.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field


class QueueClosed(RuntimeError):
    """Raised when putting into a batcher that has been closed."""


@dataclass
class MicroBatch:
    """One coalesced batch handed to a model replica.

    ``items`` are opaque work units (the service enqueues request/sample
    pairs); ``oldest_wait_s`` is how long the head-of-line item waited in
    the queue before the batch was cut, i.e. the queueing component of
    its latency.
    """

    items: list = field(default_factory=list)
    oldest_wait_s: float = 0.0

    def __len__(self) -> int:
        return len(self.items)


class MicroBatcher:
    """Bounded request queue drained in batches of up to ``max_batch_size``.

    Parameters
    ----------
    max_batch_size:
        Upper bound on the items one :meth:`next_batch` returns.
    capacity:
        Bound on queued items; :meth:`put` refuses beyond it, which is
        the service's backpressure signal.
    """

    def __init__(self, max_batch_size: int = 8, capacity: int = 64) -> None:
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        if capacity < max_batch_size:
            raise ValueError("capacity must be at least max_batch_size")
        self.max_batch_size = int(max_batch_size)
        self.capacity = int(capacity)
        self._queue: deque[tuple[float, object]] = deque()
        self._cond = threading.Condition()
        self._closed = False

    # ------------------------------------------------------------------ #
    def put(self, item) -> bool:
        """Enqueue one work item; returns False when the queue is full."""
        with self._cond:
            if self._closed:
                raise QueueClosed("cannot enqueue into a closed batcher")
            if len(self._queue) >= self.capacity:
                return False
            self._queue.append((time.perf_counter(), item))
            self._cond.notify_all()
            return True

    def pending(self) -> int:
        with self._cond:
            return len(self._queue)

    def close(self) -> None:
        """Stop admitting work; queued items can still be drained."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    def next_batch(self) -> MicroBatch | None:
        """Block until an item is queued, then return up to
        ``max_batch_size`` queued items at once; ``None`` once closed and
        drained."""
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            batch = MicroBatch(oldest_wait_s=max(time.perf_counter() - self._queue[0][0], 0.0))
            while self._queue and len(batch.items) < self.max_batch_size:
                batch.items.append(self._queue.popleft()[1])
            return batch
