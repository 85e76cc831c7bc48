"""Sharded model replicas behind one ``ScoringBackend`` protocol.

The service scores batches on a pool of model replicas, one worker
thread per replica, mirroring the paper's per-GPU model instances at
in-process scale.  Replicas either share the underlying module (safe:
eval-mode forward passes are read-only and gradient recording is
per-thread) or own a deep copy each, and each batch goes to the
least-loaded replica.
"""

from __future__ import annotations

import copy
import threading
from collections import deque
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.nn.module import Module
from repro.nn.tensor import no_grad
from repro.parallel import (
    CircuitBreaker,
    SupervisedTaskPool,
    SupervisionConfig,
    TaskFailure,
)
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

    def replicate(self, copies: int) -> list["ModuleBackend"]:
        """Deep-copied replicas (fingerprints are shared, weights equal)."""
        replicas = []
        for index in range(copies):
            clone = ModuleBackend(copy.deepcopy(self.model), name=f"{self.name}#{index}")
            clone._fingerprint = self.fingerprint()
            replicas.append(clone)
        return replicas


class _ModelScoringPayload:
    """Shipped once to a replica's worker process: the model itself.

    The wrapping :class:`ModuleBackend` is built lazily in the child on
    first use (it is pure derived state), so the pickled payload carries
    exactly the weights — shipped once at process startup, never again.
    """

    def __init__(self, model: Module, name: str) -> None:
        self.model = model
        self.name = name
        self._backend: ModuleBackend | None = None

    def __getstate__(self) -> dict:
        return {"model": self.model, "name": self.name}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._backend = None

    def run_task(self, batch: dict) -> np.ndarray:
        if self._backend is None:
            self._backend = ModuleBackend(self.model, name=self.name)
        return self._backend.score_batch(batch)


class ProcessModelBackend:
    """A :class:`ScoringBackend` whose model lives in a dedicated process.

    The thread-pool replicas of :class:`ReplicaPool` all contend for one
    GIL; a ``ProcessModelBackend`` replica owns a spawned worker process
    instead, so N replicas score on N cores.  Weights are shipped once at
    startup (via the pool's one-time payload), per-batch traffic is the
    collated NumPy batch out and the score vector back, and the
    fingerprint is computed in the parent *before* shipping — identity
    and cache keys are exactly :class:`ModuleBackend`'s.
    """

    def __init__(
        self,
        model: Module,
        name: str = "",
        supervision: SupervisionConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.model = model
        self.model.eval()
        self.name = name or f"{type(model).__name__}@process"
        self._fingerprint = model_fingerprint(model)
        self._supervision = supervision or SupervisionConfig()
        self._registry = registry
        self._lock = threading.Lock()
        self._pool: SupervisedTaskPool | None = None

    def fingerprint(self) -> str:
        return self._fingerprint

    def start(self) -> None:
        """Spawn the worker process and start shipping the weights.

        Idempotent, and valid again after :meth:`close` — a restarted
        replica pool gets a fresh process.  The warm-up is asynchronous:
        process startup overlaps the rest of pool startup, and the first
        ``score_batch`` simply queues behind it.  The pool runs under
        supervision: a killed worker process respawns and the affected
        batch re-scores bit-identically (inference is pure).
        """
        with self._lock:
            if self._pool is None:
                self._pool = SupervisedTaskPool(
                    _ModelScoringPayload(self.model, self.name),
                    max_workers=1,
                    config=self._supervision,
                    registry=self._registry,
                )
                self._pool.warm()

    def score_batch(self, batch: dict) -> np.ndarray:
        self.start()
        with self._lock:
            pool = self._pool
        if pool is None:  # pragma: no cover - closed between start and here
            raise RuntimeError(f"backend '{self.name}' is closed")
        scores = pool.run(batch)
        if isinstance(scores, TaskFailure):
            raise scores.to_exception()
        return np.asarray(scores, dtype=np.float64).reshape(-1)

    def worker_pids(self) -> list[int]:
        """PID(s) of the replica's live worker process (chaos tests)."""
        with self._lock:
            pool = self._pool
        return [] if pool is None else pool.worker_pids()

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def replicate(self, copies: int) -> list["ProcessModelBackend"]:
        """Replicas that each own a worker process (weights shipped per process)."""
        replicas = []
        for index in range(copies):
            clone = ProcessModelBackend(
                self.model,
                name=f"{self.name}#{index}",
                supervision=self._supervision,
                registry=self._registry,
            )
            clone._fingerprint = self._fingerprint
            replicas.append(clone)
        return replicas


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
        One scoring backend per replica.  Use
        :meth:`ModuleBackend.replicate` for independent weight copies, or
        pass the same backend N times to shard a shared model across
        threads.
    breaker_threshold:
        Consecutive failures on one replica before its circuit breaker
        opens.  ``0`` (the default) disables breakers entirely: dispatch
        and failure handling are bit-identical to the pre-breaker pool.
        When a breaker opens, :meth:`record_result` restarts the
        replica's backend (``close()`` then ``start()``) and dispatch
        routes around it until a half-open probe succeeds.
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
            start = getattr(replica.backend, "start", None)
            if start is not None:
                start()
            replica.thread.start()

    def close(self, wait: bool = True) -> None:
        """Stop the workers (reopenable: a later :meth:`start` restarts).

        Backends exposing their own lifecycle (``ProcessModelBackend``'s
        worker process) are closed after their replica thread drains, and
        restarted by the next :meth:`start`.
        """
        for replica in self._replicas:
            replica.close()
        if wait and self._started:
            for replica in self._replicas:
                replica.thread.join()
        for replica in self._replicas:
            close = getattr(replica.backend, "close", None)
            if close is not None:
                close()
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

        No-op when breakers are disabled.  The moment a breaker opens
        (``failure_threshold`` consecutive failures) the replica's
        backend is restarted in place — ``close()`` then ``start()`` —
        which for a :class:`ProcessModelBackend` replaces the worker
        process.  Called from the replica's own worker thread, so the
        restart never blocks dispatch to healthy replicas.
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
                "circuit breaker opened for replica %d (%d consecutive failures); restarting backend",
                replica_index,
                self._breaker_threshold,
            )
            close = getattr(replica.backend, "close", None)
            start = getattr(replica.backend, "start", None)
            try:
                if close is not None:
                    close()
                if start is not None:
                    start()
            except Exception:  # pragma: no cover - restart is best-effort
                logger.exception("replica %d backend restart failed", replica_index)

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
