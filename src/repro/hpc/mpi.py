"""In-process MPI-style communicator.

The distributed Fusion scoring jobs in the paper are 16-rank MPI programs
built with Horovod; each rank scores its own slice of poses and the
results are combined with ``allgather`` before parallel file output.  The
reproduction runs all ranks of a job inside one Python process — either
sequentially or on a thread pool — but exposes the mpi4py-style API
(lower-case methods communicate arbitrary Python objects, as in the
mpi4py tutorial) so the screening code reads like the original MPI
program.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from concurrent.futures import FIRST_EXCEPTION, BrokenExecutor, ThreadPoolExecutor, wait
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


class RankLostError(RuntimeError):
    """A rank's worker process died mid-step; raised on *every* rank.

    The process analogue of :class:`CollectiveError`: when a spawned
    rank is killed (OOM, preemption, a real SIGKILL), its peers must
    not starve at the next collective until the communicator timeout —
    the coordinator posts a loss sentinel into every queue so surviving
    ranks fail fast with the same descriptive error the caller of
    :func:`run_spmd_process` receives.
    """

    def __init__(self, rank: int, size: int, reason: str) -> None:
        super().__init__(
            f"rank {rank} of {size} was lost during an SPMD step: {reason}"
        )
        self.rank = int(rank)
        self.size = int(size)
        self.reason = str(reason)

    def __reduce__(self):
        return (RankLostError, (self.rank, self.size, self.reason))


class _RankLoss:
    """Queue sentinel fanned out by the coordinator when a rank dies."""

    __slots__ = ("rank", "size", "reason")

    def __init__(self, rank: int, size: int, reason: str) -> None:
        self.rank = rank
        self.size = size
        self.reason = reason

    def __getstate__(self):
        return (self.rank, self.size, self.reason)

    def __setstate__(self, state):
        self.rank, self.size, self.reason = state


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
        self._generation: dict[str, int] = {}
        self._queues: dict[tuple[int, int, int], queue.Queue] = {}  # created lazily per (src, dst, tag)

    # ------------------------------------------------------------------ #
    def Get_size(self) -> int:
        return self._size

    def Get_rank(self) -> int:  # pragma: no cover - ranks carry their own id
        raise NotImplementedError("use RankContext.rank; the communicator is shared by all ranks")

    @property
    def size(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #
    def _queue_for(self, src: int, dst: int, tag: int) -> queue.Queue:
        key = (src, dst, tag)
        with self._lock:
            if key not in self._queues:
                self._queues[key] = queue.Queue()
            return self._queues[key]

    def send(self, obj: Any, source: int, dest: int, tag: int = 0) -> None:
        """Send a Python object from rank ``source`` to rank ``dest``."""
        self._check_rank(source)
        self._check_rank(dest)
        self._queue_for(source, dest, tag).put(obj)

    def recv(self, source: int, dest: int, tag: int = 0, timeout: float | None = 30.0) -> Any:
        """Receive the next object sent from ``source`` to ``dest``.

        Raises
        ------
        TimeoutError
            When no message arrives within ``timeout`` seconds — naming
            the endpoints and tag, instead of the bare ``queue.Empty``
            the underlying queue raises (which says nothing about *which*
            receive starved).
        """
        self._check_rank(source)
        self._check_rank(dest)
        try:
            return self._queue_for(source, dest, tag).get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                f"recv timed out: no message from rank {source} to rank {dest} "
                f"(tag={tag}) within {timeout}s"
            ) from None

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #
    def barrier(self) -> None:
        """Block until every rank reaches the barrier."""
        self._barrier.wait(timeout=self.barrier_timeout)

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
                generation = self._generation.get(name, 0) + 1
                self._generation[name] = generation
        self._barrier.wait(timeout=self.barrier_timeout)
        result = self._collective_results[name]
        self._barrier.wait(timeout=self.barrier_timeout)
        if isinstance(result, _CollectiveFailure):
            raise CollectiveError(result.tag, result.error) from result.error
        return result

    def allgather(self, rank: int, value: Any, tag: str = "allgather") -> list[Any]:
        """Every rank contributes a value; every rank receives the rank-ordered list."""
        return self._collective(tag, rank, value, lambda bucket: [bucket[r] for r in sorted(bucket)])

    def gather(self, rank: int, value: Any, root: int = 0, tag: str = "gather") -> list[Any] | None:
        """Gather values on ``root``; other ranks receive ``None``."""
        gathered = self.allgather(rank, value, tag=f"{tag}:impl")
        return gathered if rank == root else None

    def bcast(self, rank: int, value: Any, root: int = 0, tag: str = "bcast") -> Any:
        """Broadcast ``value`` from ``root`` to every rank."""
        result = self._collective(tag, rank, value if rank == root else None, lambda bucket: bucket[root])
        return result

    def scatter(self, rank: int, values: Sequence[Any] | None, root: int = 0, tag: str = "scatter") -> Any:
        """Scatter ``values`` (given on root) so rank ``i`` receives ``values[i]``."""
        def combine(bucket: dict[int, Any]):
            root_values = bucket[root]
            if root_values is None or len(root_values) != self._size:
                raise ValueError("scatter requires a list with one element per rank on the root")
            return list(root_values)

        scattered = self._collective(tag, rank, values if rank == root else None, combine)
        return scattered[rank]

    def allreduce_sum(self, rank: int, value: float, tag: str = "allreduce") -> float:
        """Sum a scalar contribution across ranks."""
        return float(sum(self.allgather(rank, float(value), tag=f"{tag}:sum")))

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

    # ------------------------------------------------------------------ #
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self._size:
            raise ValueError(f"rank {rank} outside communicator of size {self._size}")


class RankContext:
    """Per-rank view of a :class:`LocalCommunicator` (what a rank's code receives)."""

    def __init__(self, comm: LocalCommunicator, rank: int) -> None:
        self.comm = comm
        self.rank = int(rank)

    @property
    def size(self) -> int:
        return self.comm.size

    def barrier(self) -> None:
        self.comm.barrier()

    def allgather(self, value, tag: str = "allgather"):
        return self.comm.allgather(self.rank, value, tag=tag)

    def gather(self, value, root: int = 0, tag: str = "gather"):
        return self.comm.gather(self.rank, value, root=root, tag=tag)

    def bcast(self, value=None, root: int = 0, tag: str = "bcast"):
        return self.comm.bcast(self.rank, value, root=root, tag=tag)

    def scatter(self, values=None, root: int = 0, tag: str = "scatter"):
        return self.comm.scatter(self.rank, values, root=root, tag=tag)

    def allreduce_exact(self, arrays: Sequence[np.ndarray], tag: str = "allreduce-exact") -> np.ndarray:
        return self.comm.allreduce_exact(self.rank, arrays, tag=tag)

    def send(self, obj, dest: int, tag: int = 0) -> None:
        self.comm.send(obj, source=self.rank, dest=dest, tag=tag)

    def recv(self, source: int, tag: int = 0):
        return self.comm.recv(source=source, dest=self.rank, tag=tag)


def run_spmd(
    fn: Callable[[RankContext], Any],
    size: int,
    use_threads: bool = True,
    barrier_timeout: float = 120.0,
) -> list[Any]:
    """Run ``fn(rank_context)`` on every rank of a new communicator.

    Parameters
    ----------
    fn:
        The SPMD program; receives a :class:`RankContext`.
    size:
        Number of ranks.
    use_threads:
        Run ranks on a thread pool (true MPI-style concurrency, required
        when the program uses collectives). When ``False`` and the
        program performs no collective communication, ranks run
        sequentially, which is easier to debug.
    barrier_timeout:
        Seconds a rank waits at a barrier/collective before giving up —
        short in tests (fail fast on a deadlocked program), raised for
        long campaign steps.  The process backend's equivalent is
        :func:`run_spmd_process`'s ``timeout``.

    Returns
    -------
    list of the per-rank return values, ordered by rank.
    """
    comm = LocalCommunicator(size, barrier_timeout=barrier_timeout)
    contexts = [RankContext(comm, rank) for rank in range(size)]
    if not use_threads:
        return [fn(ctx) for ctx in contexts]
    with ThreadPoolExecutor(max_workers=size) as pool:
        futures = [pool.submit(fn, ctx) for ctx in contexts]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------- #
# Process-backed SPMD
# ---------------------------------------------------------------------- #
class _StarRankContext:
    """Per-rank collectives over manager queues, for process-backed SPMD.

    Implements the same collective surface a :class:`RankContext` offers
    (``rank``/``size``/``allgather``/``bcast``/``barrier``/
    ``allreduce_exact``) so SPMD programs run unchanged on either
    backend.  Topology is a star with rank 0 as combiner: every other
    rank puts its contribution on the shared up-queue and blocks on its
    private down-queue; rank 0 drains the up-queue, combines, and fans
    the result out.  SPMD ordering makes the single shared up-queue
    safe — a rank can only enter collective *k+1* after receiving the
    result of *k*, which rank 0 only sends once it has every *k*
    contribution, so the up-queue never mixes two collectives.
    """

    def __init__(self, rank: int, size: int, up: Any, down: Sequence[Any], timeout: float) -> None:
        self.rank = int(rank)
        self._size = int(size)
        self._up = up
        self._down = list(down)
        self.timeout = float(timeout)

    @property
    def size(self) -> int:
        return self._size

    def _get(self, source: Any, tag: str) -> Any:
        try:
            item = source.get(timeout=self.timeout)
        except queue.Empty:
            raise TimeoutError(
                f"collective '{tag}' starved on rank {self.rank} after {self.timeout}s "
                "(another rank likely failed before contributing)"
            ) from None
        if isinstance(item, _RankLoss):
            # The coordinator observed a peer die and poisoned every
            # queue: fail this collective on every surviving rank now
            # instead of starving until the timeout above.
            raise RankLostError(item.rank, item.size, item.reason)
        return item

    def allgather(self, value: Any, tag: str = "allgather") -> list[Any]:
        if self._size == 1:
            return [value]
        if self.rank == 0:
            contributions: dict[int, Any] = {0: value}
            while len(contributions) < self._size:
                got_tag, src, payload = self._get(self._up, tag)
                if got_tag != tag:  # pragma: no cover - SPMD ordering forbids this
                    raise CollectiveError(tag, RuntimeError(f"interleaved collective '{got_tag}'"))
                contributions[src] = payload
            ordered = [contributions[r] for r in range(self._size)]
            for r in range(1, self._size):
                self._down[r].put((tag, ordered))
            return ordered
        self._up.put((tag, self.rank, value))
        got_tag, ordered = self._get(self._down[self.rank], tag)
        if got_tag != tag:  # pragma: no cover - SPMD ordering forbids this
            raise CollectiveError(tag, RuntimeError(f"interleaved collective '{got_tag}'"))
        return ordered

    def barrier(self) -> None:
        self.allgather(None, tag="barrier")

    def bcast(self, value: Any = None, root: int = 0, tag: str = "bcast") -> Any:
        return self.allgather(value if self.rank == root else None, tag=tag)[root]

    def allreduce_exact(self, arrays: Sequence[np.ndarray], tag: str = "allreduce-exact") -> np.ndarray:
        """Exact elementwise sum of every rank's partial arrays.

        Unlike the thread backend there is no shared combine step: every
        rank reduces the gathered partials itself.  The reduction is a
        deterministic function of identical inputs, so all ranks still
        agree bitwise.
        """
        gathered = self.allgather(list(arrays), tag=tag)
        partials = [
            np.asarray(a, dtype=np.float64) for per_rank in gathered for a in per_rank
        ]
        if not partials:
            raise ValueError("allreduce_exact requires at least one array across ranks")
        return exact_vector_sum(partials)


class _SpmdWorkerPayload:
    """Process-SPMD payload: the rank program plus its queue endpoints."""

    def __init__(self, fn: Callable[[Any], Any], size: int, up: Any, down: Sequence[Any], timeout: float) -> None:
        self.fn = fn
        self.size = int(size)
        self.up = up
        self.down = list(down)
        self.timeout = float(timeout)

    def run_task(self, rank: int) -> Any:
        ctx = _StarRankContext(rank, self.size, self.up, self.down, self.timeout)
        return self.fn(ctx)


def run_spmd_process(fn: Callable[[Any], Any], size: int, timeout: float = 300.0) -> list[Any]:
    """Run ``fn(rank_context)`` on every rank, one spawned process per rank.

    The process analogue of :func:`run_spmd`: ranks execute in separate
    spawned interpreters (via :class:`repro.parallel.ProcessTaskPool`)
    and communicate through a :class:`_StarRankContext` built on manager
    queues.  ``fn`` must satisfy the pool's spawn-safety rules — a
    module-level callable (or ``functools.partial`` of one) whose
    captured arguments pickle.

    Returns the per-rank return values ordered by rank, like
    :func:`run_spmd`.  A rank dying mid-step (killed worker process) or
    raising fails the whole step with a descriptive
    :class:`RankLostError`: the coordinator poisons every collective
    queue with a loss sentinel so *surviving* ranks raise the same
    error at their next collective instead of starving until
    ``timeout``, and then raises it to the caller naming the lost rank.
    """
    if size <= 0:
        raise ValueError("SPMD size must be positive")
    # Imported lazily: repro.parallel is a sibling layer, not a dependency
    # of the in-process communicator above.
    from repro.parallel import ProcessTaskPool

    with multiprocessing.Manager() as manager:
        up = manager.Queue()
        down = [manager.Queue() for _ in range(size)]
        payload = _SpmdWorkerPayload(fn, size, up, down, timeout)
        pool = ProcessTaskPool(payload, max_workers=size)
        try:
            # Start every worker before any rank runs.  The executor spawns
            # workers on demand, and its manager thread can enter its wait
            # before the last worker's sentinel exists; a rank killed then
            # is never noticed and the survivors starve in a collective.
            # Each warm-up result wakes the manager thread, so once all
            # are back it waits on every worker's sentinel.
            wait([pool.warm() for _ in range(size)], timeout=timeout)
            futures = [pool.submit(rank) for rank in range(size)]
            _, not_done = wait(futures, timeout=timeout, return_when=FIRST_EXCEPTION)
            lost = next(
                (
                    (rank, future)
                    for rank, future in enumerate(futures)
                    if future.done()
                    and (future.cancelled() or future.exception() is not None)
                ),
                None,
            )
            if lost is None:
                if not_done:
                    raise TimeoutError(
                        f"SPMD step did not complete within {timeout}s: "
                        f"{len(not_done)} of {size} rank(s) still running"
                    )
                return [future.result() for future in futures]
            rank, future = lost
            cause = None if future.cancelled() else future.exception()
            reason = (
                "worker process died (BrokenProcessPool)"
                if isinstance(cause, BrokenExecutor)
                else f"{type(cause).__name__}: {cause}"
                if cause is not None
                else "rank future was cancelled"
            )
            loss = _RankLoss(rank, size, reason)
            try:
                up.put(loss)
                for rank_queue in down:
                    rank_queue.put(loss)
            except Exception:  # pragma: no cover - manager already torn down
                pass
            # Give survivors a moment to observe the sentinel and exit
            # their collectives cleanly before the pool is shut down.
            wait(futures, timeout=5.0)
            raise RankLostError(rank, size, reason) from cause
        finally:
            pool.close()
