"""A spawn-based process pool with one-time payload shipping.

:class:`ProcessTaskPool` is the primitive behind every process backend in
the repo (``StreamConfig(backend="process")``,
:class:`repro.serving.workers.ProcessModelBackend`, the SPMD ranks of
:func:`repro.hpc.mpi.run_spmd_process`).  The design follows
one rule: **ship the heavy state once, dispatch light descriptors
forever**.

* The *payload* — model weights, binding sites, a stripped streaming
  engine — is pickled exactly once in the parent and handed to each
  worker process through the executor initializer, so per-task messages
  stay small (shard index triples, compound ids, collated batches).
* Workers are started with ``multiprocessing.get_context("spawn")``:
  children run a fresh interpreter (no inherited locks mid-acquire, no
  copied thread state — fork's classic hazards), import the payload's
  modules cleanly and inherit ``sys.path``, so ``PYTHONPATH=src`` runs
  behave identically in children.

Spawn-safety rules for payloads (see also ``docs/parallel.md``):

1. the payload class must be importable by module path in a fresh
   interpreter (module-level class, not a closure or ``__main__`` local);
2. everything the payload references must pickle — objects holding
   ``threading`` primitives need ``__getstate__`` (e.g.
   :class:`~repro.telemetry.StreamingHistogram`,
   :class:`~repro.featurize.cache.FeatureCache`);
3. payloads must not expect parent-side mutable state: checkpoints,
   services and fault injectors stay in the coordinator.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Protocol

__all__ = [
    "PARALLEL_BACKENDS",
    "PoolClosedError",
    "ProcessTaskPool",
    "WorkerPayload",
    "current_task_attempt",
    "validate_backend",
]

#: Every execution backend a parallel path accepts.  ``"thread"`` is the
#: in-process pool each call site always had; ``"process"`` routes the
#: same work through a :class:`ProcessTaskPool`.  Results are
#: bit-identical either way, which is why the choice never enters
#: checkpoint or shard keys.
PARALLEL_BACKENDS = ("thread", "process")


def validate_backend(backend: str) -> str:
    """Check ``backend`` against :data:`PARALLEL_BACKENDS` and return it."""
    if backend not in PARALLEL_BACKENDS:
        raise ValueError(
            f"unknown execution backend '{backend}'; expected one of {PARALLEL_BACKENDS}"
        )
    return backend


class WorkerPayload(Protocol):
    """What a process pool ships to its workers: state plus a task entry point."""

    def run_task(self, task: Any) -> Any:
        """Execute one task descriptor against the shipped state."""
        ...


class PoolClosedError(RuntimeError):
    """Raised when tasks are dispatched against a pool after ``close()``.

    Subclasses :class:`RuntimeError` so callers matching the historical
    bare ``RuntimeError("... closed")`` keep working; the message names
    the pool and the payload type so a stray submit in a shutdown race
    is attributable from the traceback alone.
    """

    def __init__(self, pool_name: str, payload_type: str) -> None:
        super().__init__(
            f"{pool_name} is closed; cannot dispatch tasks against "
            f"payload {payload_type!r}"
        )
        self.pool_name = pool_name
        self.payload_type = payload_type

    def __reduce__(self):
        return (PoolClosedError, (self.pool_name, self.payload_type))


class _Warmup:
    """Sentinel task: spawns a worker and ships the payload, does nothing."""


class _AttemptedTask:
    """A task wrapped with its dispatch attempt number.

    :class:`~repro.parallel.supervisor.SupervisedTaskPool` wraps every
    task it re-dispatches after a crash so fault injectors inside the
    worker (:class:`repro.hpc.faults.ProcessKillFault`) can fire on a
    *specific* attempt — kill attempt 1, let the respawned attempt 2
    run clean — keeping chaos tests deterministic.
    """

    __slots__ = ("task", "attempt")

    def __init__(self, task: Any, attempt: int) -> None:
        self.task = task
        self.attempt = int(attempt)

    def __getstate__(self):
        return (self.task, self.attempt)

    def __setstate__(self, state):
        self.task, self.attempt = state


#: One payload per worker *process*, installed by the initializer.
_PAYLOAD: Any = None

#: Attempt number of the task currently executing in *this* worker
#: process; ``None`` outside a worker (coordinator, thread backends).
_TASK_ATTEMPT: int | None = None


def current_task_attempt() -> int | None:
    """Attempt number of the task running in this worker process.

    ``1`` on first dispatch, ``2`` after one crash re-dispatch, and so
    on; ``None`` when not inside a process-pool worker (so in-worker
    fault injectors stay inert on thread backends and in the
    coordinator).
    """
    return _TASK_ATTEMPT


def _initialize_worker(payload_bytes: bytes) -> None:
    global _PAYLOAD
    _PAYLOAD = pickle.loads(payload_bytes)


def _run_task(task: Any) -> Any:
    global _TASK_ATTEMPT
    if _PAYLOAD is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker process has no payload; initializer did not run")
    attempt = 1
    if task.__class__ is _AttemptedTask:
        attempt, task = task.attempt, task.task
    if task.__class__ is _Warmup:
        return None
    _TASK_ATTEMPT = attempt
    try:
        return _PAYLOAD.run_task(task)
    finally:
        _TASK_ATTEMPT = None


class ProcessTaskPool:
    """A bounded pool of spawned worker processes sharing one payload.

    Parameters
    ----------
    payload:
        The :class:`WorkerPayload` shipped once to every worker.  It is
        pickled eagerly in the constructor so an unpicklable payload
        fails fast in the parent with a useful traceback, not inside an
        opaque worker crash.
    max_workers:
        Upper bound on concurrent worker processes.  Processes are
        spawned on demand by the executor; :meth:`warm` forces the first
        spawn early so payload shipping overlaps coordinator startup.
    """

    def __init__(self, payload: WorkerPayload, max_workers: int = 1) -> None:
        self._init_from_bytes(
            pickle.dumps(payload), max_workers, type(payload).__name__
        )

    @classmethod
    def from_bytes(
        cls,
        payload_bytes: bytes,
        max_workers: int = 1,
        payload_type: str = "payload",
    ) -> "ProcessTaskPool":
        """Build a pool from an already-pickled payload.

        This is the respawn path of
        :class:`~repro.parallel.supervisor.SupervisedTaskPool`: the
        payload was serialized exactly once up front, so replacing a
        crashed pool costs only process spawns, never re-pickling model
        weights or binding sites.
        """
        pool = cls.__new__(cls)
        pool._init_from_bytes(payload_bytes, max_workers, payload_type)
        return pool

    def _init_from_bytes(
        self, payload_bytes: bytes, max_workers: int, payload_type: str
    ) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = int(max_workers)
        self._payload_bytes = payload_bytes
        self._payload_type = payload_type
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_initialize_worker,
            initargs=(self._payload_bytes,),
        )

    # ------------------------------------------------------------------ #
    @property
    def payload_nbytes(self) -> int:
        """Size of the one-time shipped payload (observability)."""
        return len(self._payload_bytes)

    @property
    def payload_type(self) -> str:
        """Class name of the shipped payload (diagnostics)."""
        return self._payload_type

    def is_broken(self) -> bool:
        """Whether a worker death has poisoned the underlying executor."""
        executor = self._executor
        return bool(executor is not None and getattr(executor, "_broken", False))

    def worker_pids(self) -> list[int]:
        """PIDs of live worker processes (chaos tests kill these)."""
        executor = self._executor
        if executor is None:
            return []
        processes = getattr(executor, "_processes", None) or {}
        return [proc.pid for proc in list(processes.values()) if proc.is_alive()]

    def submit(self, task: Any) -> Future:
        """Dispatch one task descriptor; returns its future."""
        if self._executor is None:
            raise PoolClosedError(type(self).__name__, self._payload_type)
        return self._executor.submit(_run_task, task)

    def run(self, task: Any) -> Any:
        """Dispatch one task and block for its result."""
        return self.submit(task).result()

    def warm(self, wait: bool = False) -> Future:
        """Start spawning a worker (and shipping the payload) now.

        By default the warm-up future is returned without waiting, so
        process startup overlaps whatever the caller does next; real
        tasks submitted meanwhile simply queue behind it.
        """
        future = self.submit(_Warmup())
        if wait:
            future.result()
        return future

    def close(self) -> None:
        """Shut the workers down; idempotent."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ProcessTaskPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
