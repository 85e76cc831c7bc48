"""In-process MPI-style communicator.

The paper's distributed programs are MPI jobs built with Horovod.  The
reproduction runs all ranks of a job as threads of one Python process
(:func:`run_spmd`) and keeps only the three collectives its programs
call: ``bcast`` (the initial weights), ``allgather`` and the exact
``allreduce_exact`` (the data-parallel trainer's gradient reduction).
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Any, Callable, Sequence

import numpy as np

from repro.telemetry.exact import exact_vector_sum


class CollectiveError(RuntimeError):
    """A collective's combine step failed; raised on *every* rank.

    MPI semantics demand that all ranks of a failed collective observe
    the failure — one rank raising while the others block at the barrier
    is a deadlock, not an error report.  ``tag`` names the collective,
    ``__cause__`` carries the original combine exception.
    """

    def __init__(self, tag: str, cause: BaseException) -> None:
        super().__init__(f"collective '{tag}' failed: {cause}")
        self.tag = tag


class _CollectiveFailure:
    """Result slot marker: the combine for this rendezvous raised."""

    __slots__ = ("tag", "error")

    def __init__(self, tag: str, error: BaseException) -> None:
        self.tag = tag
        self.error = error


class LocalCommunicator:
    """A communicator shared by the ranks of one in-process SPMD job.

    Collective operations follow MPI semantics: every rank must call the
    collective; ``root`` arguments select the source/destination rank.
    """

    def __init__(self, size: int, barrier_timeout: float = 120.0) -> None:
        if size <= 0:
            raise ValueError("communicator size must be positive")
        if barrier_timeout <= 0:
            raise ValueError("barrier_timeout must be positive")
        self._size = int(size)
        self._barrier = threading.Barrier(self._size)
        self.barrier_timeout = float(barrier_timeout)
        self._lock = threading.Lock()
        self._collective_buffer: dict[str, dict[int, Any]] = {}
        self._collective_results: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #
    def _collective(self, name: str, rank: int, value: Any, combine: Callable[[dict[int, Any]], Any]) -> Any:
        """Generic rendezvous collective: gather every rank's value, combine once.

        A raising ``combine`` must not poison the communicator: the
        bucket is cleared either way (a stale bucket would make the next
        same-tag collective see ``len(bucket) == size`` prematurely), the
        failure is recorded as the rendezvous *result* so every rank
        walks through both barriers normally (keeping the barrier
        reusable instead of timing it out broken), and every rank then
        raises the same descriptive :class:`CollectiveError`.
        """
        with self._lock:
            bucket = self._collective_buffer.setdefault(name, {})
            bucket[rank] = value
            ready = len(bucket) == self._size
            if ready:
                try:
                    result = combine(dict(bucket))
                except Exception as error:
                    result = _CollectiveFailure(name, error)
                finally:
                    self._collective_buffer[name] = {}
                self._collective_results[name] = result
        self._barrier.wait(timeout=self.barrier_timeout)
        result = self._collective_results[name]
        self._barrier.wait(timeout=self.barrier_timeout)
        if isinstance(result, _CollectiveFailure):
            raise CollectiveError(result.tag, result.error) from result.error
        return result

    def allgather(self, rank: int, value: Any, tag: str = "allgather") -> list[Any]:
        """Every rank contributes a value; every rank receives the rank-ordered list."""
        return self._collective(tag, rank, value, lambda bucket: [bucket[r] for r in sorted(bucket)])

    def bcast(self, rank: int, value: Any, root: int = 0, tag: str = "bcast") -> Any:
        """Broadcast ``value`` from ``root`` to every rank."""
        result = self._collective(tag, rank, value if rank == root else None, lambda bucket: bucket[root])
        return result

    def allreduce_exact(
        self, rank: int, arrays: Sequence[np.ndarray], tag: str = "allreduce-exact"
    ) -> np.ndarray:
        """Exactly sum equally-shaped float arrays contributed by all ranks.

        Each rank contributes zero or more partial arrays; every rank
        receives the correctly-rounded elementwise sum over *all*
        contributed arrays (Shewchuk expansion, see
        :func:`repro.telemetry.exact_vector_sum`).  Because the result is
        a function of the multiset of partials only, it is bit-identical
        no matter how the partials are distributed across ranks — the
        property the data-parallel trainer's gradient reduction relies
        on.  Ranks must *not* pre-sum their own partials (that would
        round twice); they send the raw partial arrays.
        """
        def combine(bucket: dict[int, Any]) -> np.ndarray:
            partials = [
                np.asarray(a, dtype=np.float64) for r in sorted(bucket) for a in bucket[r]
            ]
            if not partials:
                raise ValueError("allreduce_exact requires at least one array across ranks")
            return exact_vector_sum(partials)

        return self._collective(f"{tag}:exact", rank, list(arrays), combine)


class RankContext:
    """Per-rank view of a :class:`LocalCommunicator` (what a rank's code receives)."""

    def __init__(self, comm: LocalCommunicator, rank: int) -> None:
        self.comm = comm
        self.rank = int(rank)

    @property
    def size(self) -> int:
        return self.comm.size

    def allgather(self, value, tag: str = "allgather"):
        return self.comm.allgather(self.rank, value, tag=tag)

    def bcast(self, value=None, root: int = 0, tag: str = "bcast"):
        return self.comm.bcast(self.rank, value, root=root, tag=tag)

    def allreduce_exact(self, arrays: Sequence[np.ndarray], tag: str = "allreduce-exact") -> np.ndarray:
        return self.comm.allreduce_exact(self.rank, arrays, tag=tag)


def run_spmd(
    fn: Callable[[RankContext], Any],
    size: int,
    barrier_timeout: float = 120.0,
) -> list[Any]:
    """Run ``fn(rank_context)`` on every rank of a new communicator.

    Each rank runs on its own thread.  When a rank raises, the
    communicator's barrier is aborted at once, so peers blocked in a
    collective wake with ``BrokenBarrierError`` instead of waiting out
    ``barrier_timeout``, and the raising rank's own exception propagates
    (the lowest such rank's, when several raise).

    Parameters
    ----------
    fn:
        The SPMD program; receives a :class:`RankContext`.
    size:
        Number of ranks.
    barrier_timeout:
        Seconds a rank waits at a barrier/collective before giving up —
        short in tests (fail fast on a deadlocked program), raised for
        long campaign steps.

    Returns
    -------
    list of the per-rank return values, ordered by rank.
    """
    comm = LocalCommunicator(size, barrier_timeout=barrier_timeout)
    with ThreadPoolExecutor(max_workers=size) as pool:
        futures = [pool.submit(fn, RankContext(comm, rank)) for rank in range(size)]
        _, pending = wait(futures, return_when=FIRST_EXCEPTION)
        if pending:
            comm._barrier.abort()
    errors = [error for error in (f.exception() for f in futures) if error is not None]
    if errors:
        # a peer's BrokenBarrierError is only the echo of the abort above
        raise next((e for e in errors if not isinstance(e, threading.BrokenBarrierError)), errors[0])
    return [f.result() for f in futures]
