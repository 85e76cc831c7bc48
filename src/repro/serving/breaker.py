"""Per-replica circuit breaker for the serving layer.

:class:`~repro.serving.workers.ReplicaPool` gives each model replica a
consecutive-failure breaker (closed → open → half-open probe → closed)
so :class:`~repro.serving.service.ScoringService` routes around a sick
replica while it restarts — see ``docs/resilience.md`` for the full
state machine.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.telemetry import MetricsRegistry
from repro.telemetry import current as current_telemetry
from repro.utils.logging import get_logger

__all__ = ["CircuitBreaker"]

logger = get_logger("repro.serving.breaker")


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    * **closed** — traffic flows; ``failure_threshold`` *consecutive*
      failures trip it open (one success resets the streak).
    * **open** — :meth:`peek_allow`/:meth:`allow` deny for
      ``reset_timeout_s`` seconds.
    * **half-open** — after the timeout, :meth:`allow` admits exactly
      one probe; the probe's success closes the breaker, its failure
      reopens it for another full timeout.

    The serving layer gives each model replica a breaker: tripping open
    triggers the replica's ``close() → start()`` restart and
    :meth:`~repro.serving.workers.ReplicaPool._pick` routes new batches
    around it until the probe succeeds.  Accumulated open time is
    exported as the ``supervision.breaker_open_s`` gauge and trips as
    the ``supervision.breaker_opened`` counter.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        name: str = "",
        failure_threshold: int = 3,
        reset_timeout_s: float = 1.0,
        registry: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self._clock = clock
        registry = registry if registry is not None else current_telemetry().registry
        self._m_opened = registry.counter("supervision.breaker_opened")
        self._m_open_s = registry.gauge("supervision.breaker_open_s")
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state(self._clock())

    def _effective_state(self, now: float) -> str:
        if self._state == self.OPEN and now - self._opened_at >= self.reset_timeout_s:
            return self.HALF_OPEN
        return self._state

    def peek_allow(self) -> bool:
        """Would a request be admitted now?  Never claims the probe slot."""
        with self._lock:
            state = self._effective_state(self._clock())
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN:
                return not self._probing
            return False

    def allow(self) -> bool:
        """Admit a request; in half-open state this claims the single probe."""
        with self._lock:
            now = self._clock()
            state = self._effective_state(now)
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN:
                if self._probing:
                    return False
                self._state = self.HALF_OPEN
                self._probing = True
                return True
            return False

    def seconds_until_probe(self) -> float:
        """Time until this breaker would admit a half-open probe."""
        with self._lock:
            now = self._clock()
            state = self._effective_state(now)
            if state == self.OPEN:
                return self.reset_timeout_s - (now - self._opened_at)
            return 0.0

    def record_success(self) -> None:
        with self._lock:
            if self._state != self.CLOSED:
                self._account_open_time(self._clock())
                logger.info("circuit breaker %r closed", self.name)
            self._state = self.CLOSED
            self._failures = 0
            self._probing = False
            self._opened_at = None

    def record_failure(self) -> bool:
        """Record one failure; returns ``True`` when this trip *opened* it."""
        with self._lock:
            now = self._clock()
            state = self._effective_state(now)
            self._failures += 1
            if state == self.HALF_OPEN or self._failures >= self.failure_threshold:
                freshly_opened = self._state != self.OPEN or state == self.HALF_OPEN
                if self._opened_at is not None:
                    self._account_open_time(now)
                self._state = self.OPEN
                self._opened_at = now
                self._probing = False
                if freshly_opened:
                    self._m_opened.inc()
                    logger.warning(
                        "circuit breaker %r opened after %d consecutive failure(s)",
                        self.name,
                        self._failures,
                    )
                return freshly_opened
            return False

    def _account_open_time(self, now: float) -> None:
        if self._opened_at is not None:
            self._m_open_s.add(max(now - self._opened_at, 0.0))
            self._opened_at = None
