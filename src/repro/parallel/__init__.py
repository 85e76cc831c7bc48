"""repro.parallel — the process-parallel execution backend.

Every parallel path in the repo historically ran on GIL-bound thread
pools; this package provides the process alternative behind one
primitive, :class:`ProcessTaskPool` (``spawn`` context, heavy payload
shipped once per worker, light task descriptors per dispatch).  Call
sites select it with a ``backend="thread" | "process"`` knob:

* ``StreamConfig(backend=...)`` — streaming shard execution
  (:mod:`repro.screening.stream`);
* ``ServingConfig(backend=...)`` — per-process model replicas
  (:class:`repro.serving.workers.ProcessModelBackend`).

Results are bit-identical across backends (the streaming golden suite
pins it), so the choice never enters checkpoint or shard keys.  Worker-process metrics flow back to the coordinator via
:func:`isolated_registry` + :meth:`~repro.telemetry.MetricsRegistry.absorb`.

Crash resilience lives in :mod:`repro.parallel.supervisor`: every
process path runs behind :class:`SupervisedTaskPool`, which respawns a
pool whose worker died, re-dispatches the in-flight tasks, quarantines
poison tasks as :class:`TaskFailure` and (for serving) health-checks
replicas with :class:`CircuitBreaker` — see ``docs/resilience.md``.
"""

from repro.parallel.metrics import isolated_registry
from repro.parallel.pool import (
    PARALLEL_BACKENDS,
    PoolClosedError,
    ProcessTaskPool,
    WorkerPayload,
    current_task_attempt,
    validate_backend,
)
from repro.parallel.supervisor import (
    CircuitBreaker,
    RespawnExhausted,
    SupervisedTaskPool,
    SupervisionConfig,
    TaskFailure,
    TaskQuarantined,
)

__all__ = [
    "PARALLEL_BACKENDS",
    "CircuitBreaker",
    "PoolClosedError",
    "ProcessTaskPool",
    "RespawnExhausted",
    "SupervisedTaskPool",
    "SupervisionConfig",
    "TaskFailure",
    "TaskQuarantined",
    "WorkerPayload",
    "current_task_attempt",
    "isolated_registry",
    "validate_backend",
]
