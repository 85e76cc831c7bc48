"""repro.parallel — the process pool behind the SPMD training ranks.

:class:`ProcessTaskPool` (``spawn`` context, heavy payload shipped once
per worker, light task descriptors per dispatch) runs the ranks of
:func:`repro.hpc.mpi.run_spmd_process`, which
``DistributedTrainerConfig(backend="process")`` selects.  Screening
shards and serving replicas run on threads only.
"""

from repro.parallel.pool import (
    PARALLEL_BACKENDS,
    PoolClosedError,
    ProcessTaskPool,
    WorkerPayload,
    validate_backend,
)

__all__ = [
    "PARALLEL_BACKENDS",
    "PoolClosedError",
    "ProcessTaskPool",
    "WorkerPayload",
    "validate_backend",
]
