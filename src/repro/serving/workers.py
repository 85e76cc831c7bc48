"""Sharded model replicas behind one ``ScoringBackend`` protocol.

The service scores batches on a pool of model replicas, one worker
thread per replica, mirroring the paper's per-GPU model instances at
in-process scale.  Replicas share the underlying module (safe: eval-mode
forward passes are read-only and gradient recording is per-thread), and
each batch goes to the least-loaded replica.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.nn.module import Module
from repro.nn.tensor import no_grad
from repro.serving.breaker import CircuitBreaker
from repro.serving.requests import model_fingerprint
from repro.telemetry import MetricsRegistry
from repro.utils.logging import get_logger

logger = get_logger("repro.serving.workers")


class ScoringBackend(Protocol):
    """Anything that can score a collated batch into per-sample pK values."""

    name: str

    def fingerprint(self) -> str:
        """Content fingerprint of the backend's model identity."""
        ...

    def score_batch(self, batch: dict) -> np.ndarray:
        """Score one collated batch; returns a ``(N,)`` float array."""
        ...


class ModuleBackend:
    """Wrap any ``repro.nn`` module (LateFusion, FusionNetwork, heads...)."""

    def __init__(self, model: Module, name: str = "") -> None:
        self.model = model
        self.model.eval()
        self.name = name or type(model).__name__
        self._fingerprint: str | None = None

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = model_fingerprint(self.model)
        return self._fingerprint

    def score_batch(self, batch: dict) -> np.ndarray:
        # fusion models expose the batched inference entry point directly;
        # it performs the exact ops of the fallback, so scores are unchanged
        predict = getattr(self.model, "predict_batch", None)
        if predict is not None:
            return predict(batch)
        with no_grad():
            out = self.model(batch)
        return np.asarray(out.numpy(), dtype=np.float64).reshape(-1)


class _Replica:
    """One worker thread draining a private task queue."""

    def __init__(self, index: int, backend: ScoringBackend, breaker: CircuitBreaker | None = None) -> None:
        self.index = index
        self.backend = backend
        self.breaker = breaker
        self.tasks: deque[Callable[[], None]] = deque()
        self.cond = threading.Condition()
        self.in_flight = 0
        self.completed_batches = 0
        self.closed = False
        self.thread = threading.Thread(target=self._loop, name=f"serving-replica-{index}", daemon=True)

    def load(self) -> int:
        with self.cond:
            return len(self.tasks) + self.in_flight

    def submit(self, task: Callable[[], None]) -> None:
        with self.cond:
            if self.closed:
                raise RuntimeError("replica is closed")
            self.tasks.append(task)
            self.cond.notify()

    def close(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify()

    def _loop(self) -> None:
        while True:
            with self.cond:
                while not self.tasks and not self.closed:
                    self.cond.wait()
                if not self.tasks and self.closed:
                    return
                task = self.tasks.popleft()
                self.in_flight += 1
            try:
                task()
            finally:
                with self.cond:
                    self.in_flight -= 1
                    self.completed_batches += 1
                    self.cond.notify_all()


class ReplicaPool:
    """Dispatch batches across model replicas.

    Each batch goes to the replica with the fewest queued + running
    batches (lowest index on ties), among those whose breaker allows it.

    Parameters
    ----------
    backends:
        One scoring backend per replica; pass the same backend N times to
        shard a shared model across threads.
    breaker_threshold:
        Consecutive failures on one replica before its circuit breaker
        opens.  ``0`` (the default) disables breakers entirely: dispatch
        and failure handling are bit-identical to the pre-breaker pool.
        When a breaker opens, dispatch routes around the replica until a
        half-open probe succeeds.
    breaker_reset_s:
        Seconds an open breaker waits before allowing one probe batch.
    registry:
        Metrics registry receiving ``supervision.breaker_*`` series from
        the per-replica breakers.
    """

    def __init__(
        self,
        backends: Sequence[ScoringBackend],
        breaker_threshold: int = 0,
        breaker_reset_s: float = 1.0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not backends:
            raise ValueError("ReplicaPool needs at least one backend")
        if breaker_threshold < 0:
            raise ValueError(f"breaker_threshold must be >= 0, got {breaker_threshold}")
        self._backends = list(backends)
        self._breaker_threshold = breaker_threshold
        self._breaker_reset_s = breaker_reset_s
        self._registry = registry
        self._replicas = self._build_replicas()
        self._started = False
        self._closed = False

    def _build_replicas(self) -> list[_Replica]:
        replicas = []
        for index, backend in enumerate(self._backends):
            breaker = None
            if self._breaker_threshold > 0:
                breaker = CircuitBreaker(
                    name=f"replica-{index}",
                    failure_threshold=self._breaker_threshold,
                    reset_timeout_s=self._breaker_reset_s,
                    registry=self._registry,
                )
            replicas.append(_Replica(index, backend, breaker=breaker))
        return replicas

    # ------------------------------------------------------------------ #
    @property
    def num_replicas(self) -> int:
        return len(self._replicas)

    def start(self) -> None:
        """Start (or restart) the replica workers; idempotent while running.

        Worker *threads* are single-use, so a pool restarted after
        :meth:`close` gets fresh :class:`_Replica` objects — restarting
        used to re-``start()`` the finished threads, which raises
        ``RuntimeError: threads can only be started once`` and left the
        replicas marked closed.  Per-replica batch counters restart from
        zero with the fresh replicas.
        """
        if self._started:
            return
        if self._closed:
            self._replicas = self._build_replicas()
            self._closed = False
        self._started = True
        for replica in self._replicas:
            replica.thread.start()

    def close(self, wait: bool = True) -> None:
        """Stop the workers (reopenable: a later :meth:`start` restarts)."""
        for replica in self._replicas:
            replica.close()
        if wait and self._started:
            for replica in self._replicas:
                replica.thread.join()
        self._started = False
        self._closed = True

    # ------------------------------------------------------------------ #
    def _pick(self) -> _Replica:
        candidates = self._replicas
        if self._breaker_threshold > 0:
            healthy = [r for r in candidates if r.breaker is None or r.breaker.peek_allow()]
            if healthy:
                candidates = healthy
            else:
                # every breaker is open: queue onto the replica whose probe
                # window opens soonest rather than failing the request
                return min(candidates, key=lambda r: (r.breaker.seconds_until_probe(), r.index))
        replica = min(candidates, key=lambda r: (r.load(), r.index))
        if replica.breaker is not None:
            # claim the half-open probe slot if this pick is the probe
            replica.breaker.allow()
        return replica

    def submit(self, work: Callable[[int, ScoringBackend], None]) -> int:
        """Assign ``work(replica_index, backend)`` to a replica; returns its index."""
        if not self._started:
            raise RuntimeError("ReplicaPool.submit before start()")
        replica = self._pick()
        replica.submit(lambda: work(replica.index, replica.backend))
        return replica.index

    def record_result(self, replica_index: int, ok: bool) -> None:
        """Report a batch outcome to the replica's circuit breaker.

        No-op when breakers are disabled.  Once a breaker opens
        (``failure_threshold`` consecutive failures) :meth:`_pick` routes
        around the replica until its half-open probe.
        """
        replica = self._replicas[replica_index]
        breaker = replica.breaker
        if breaker is None:
            return
        if ok:
            breaker.record_success()
            return
        if breaker.record_failure():
            logger.warning(
                "circuit breaker opened for replica %d (%d consecutive failures)",
                replica_index,
                self._breaker_threshold,
            )

    def breaker_states(self) -> list[str | None]:
        """Current breaker state per replica (``None`` when disabled)."""
        return [None if r.breaker is None else r.breaker.state for r in self._replicas]

    def loads(self) -> list[int]:
        """Queued + running batches per replica (dispatch observability)."""
        return [r.load() for r in self._replicas]

    def completed_batches(self) -> list[int]:
        """Completed-batch count per replica, read under each replica's lock
        (the counter is written under it; an unlocked read could surface a
        torn in-between during the increment)."""
        counts = []
        for replica in self._replicas:
            with replica.cond:
                counts.append(replica.completed_batches)
        return counts
