"""A spawn-based process pool with one-time payload shipping.

:class:`ProcessTaskPool` runs the ranks of
:func:`repro.hpc.mpi.run_spmd_process`, the process backend of
``DistributedTrainerConfig``.  The design follows one rule: **ship the
heavy state once, dispatch light descriptors forever**.

* The *payload* — the rank body with everything it captured — is
  pickled exactly once in the parent and handed to each worker process
  through the executor initializer, so per-task messages stay small
  (a rank number).
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
3. payloads must not expect parent-side mutable state: ranks exchange
   data only through their rank context's collectives.
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
    "validate_backend",
]

#: Every execution backend the data-parallel trainer accepts.
#: ``"thread"`` runs ranks on in-process threads; ``"process"`` runs them
#: on a :class:`ProcessTaskPool`.  Results are bit-identical either way.
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


#: One payload per worker *process*, installed by the initializer.
_PAYLOAD: Any = None


def _initialize_worker(payload_bytes: bytes) -> None:
    global _PAYLOAD
    _PAYLOAD = pickle.loads(payload_bytes)


def _run_task(task: Any) -> Any:
    if _PAYLOAD is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker process has no payload; initializer did not run")
    if task.__class__ is _Warmup:
        return None
    return _PAYLOAD.run_task(task)


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
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = int(max_workers)
        self._payload_bytes = pickle.dumps(payload)
        self._payload_type = type(payload).__name__
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
