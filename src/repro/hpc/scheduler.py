"""LSF-like batch scheduler over the simulated cluster.

Models the aspects of IBM Spectrum LSF that shaped the paper's training
and screening architecture: a job queue, per-job node counts, a hard
wall-time limit (12 hours on Lassen) after which running jobs are killed
and must be resubmitted, and failure/requeue handling.  Time advances on
a virtual :class:`repro.utils.timer.WallClock`, so campaigns spanning
simulated days run in milliseconds.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

from repro.hpc.cluster import SimulatedCluster
from repro.hpc.faults import FaultEvent, FaultInjector
from repro.utils.timer import WallClock


class JobState(str, enum.Enum):
    """Lifecycle states of a scheduled job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    TIMEOUT = "timeout"
    CANCELLED = "cancelled"


@dataclass
class Job:
    """A batch job submitted to the scheduler.

    Attributes
    ----------
    name:
        Unique job name.
    num_nodes:
        Nodes requested.
    duration_seconds:
        Modelled execution time if the job runs to completion.
    payload:
        Optional callable executed when the job completes successfully
        (receives the job). Used by the screening pipeline to materialize
        results of modelled jobs.
    max_retries:
        Number of automatic resubmissions after failure or timeout.
    """

    name: str
    num_nodes: int
    duration_seconds: float
    payload: Callable[["Job"], None] | None = None
    max_retries: int = 2
    priority: int = 0
    state: JobState = JobState.PENDING
    attempts: int = 0
    submit_time: float = 0.0
    start_time: float = float("nan")
    end_time: float = float("nan")
    fault: FaultEvent | None = None

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.duration_seconds < 0:
            raise ValueError("duration_seconds must be non-negative")


@dataclass
class SchedulerConfig:
    """Scheduler policy parameters."""

    walltime_limit_seconds: float = 12 * 3600.0  # Lassen's 12-hour limit
    requeue_on_failure: bool = True
    requeue_on_timeout: bool = True


class JobScheduler:
    """Event-driven scheduler: start jobs when nodes free up, handle failures.

    The implementation is a discrete-event simulation: pending jobs start
    whenever enough nodes are free (FIFO within priority), running jobs
    finish after ``duration_seconds`` or are cut at the wall-time limit,
    and the fault injector may abort a job partway through.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        config: SchedulerConfig | None = None,
        fault_injector: FaultInjector | None = None,
        clock: WallClock | None = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or SchedulerConfig()
        self.faults = fault_injector or FaultInjector(enabled=False)
        self.clock = clock or WallClock()
        self.jobs: dict[str, Job] = {}
        self._pending: list[tuple[int, int, str]] = []  # (-priority, seq, name)
        self._events: list[tuple[float, int, str]] = []  # (time, seq, name)
        self._seq = itertools.count()
        self.history: list[tuple[float, str, str]] = []

    # ------------------------------------------------------------------ #
    def submit(self, job: Job) -> Job:
        """Submit a job to the queue."""
        if job.name in self.jobs:
            raise ValueError(f"a job named '{job.name}' was already submitted")
        if job.num_nodes > self.cluster.num_nodes:
            raise ValueError(
                f"job '{job.name}' requests {job.num_nodes} nodes but the cluster has {self.cluster.num_nodes}"
            )
        job.state = JobState.PENDING
        job.submit_time = self.clock.now
        self.jobs[job.name] = job
        heapq.heappush(self._pending, (-job.priority, next(self._seq), job.name))
        return job

    # ------------------------------------------------------------------ #
    def _try_start_jobs(self) -> None:
        deferred: list[tuple[int, int, str]] = []
        while self._pending:
            priority, seq, name = heapq.heappop(self._pending)
            job = self.jobs[name]
            if job.state is not JobState.PENDING:
                continue
            if not self.cluster.can_allocate(job.num_nodes):
                deferred.append((priority, seq, name))
                # keep FIFO order: stop trying once the head job cannot start
                break
            self.cluster.allocate(job.name, job.num_nodes)
            job.state = JobState.RUNNING
            job.attempts += 1
            job.start_time = self.clock.now
            run_time = min(job.duration_seconds, self.config.walltime_limit_seconds)
            fault = self.faults.check(job.name, job.num_nodes, attempt=job.attempts)
            job.fault = fault
            if fault is not None:
                run_time = min(run_time, fault.at_fraction * job.duration_seconds)
            heapq.heappush(self._events, (self.clock.now + run_time, next(self._seq), job.name))
            self.history.append((self.clock.now, job.name, "start"))
        for item in deferred:
            heapq.heappush(self._pending, item)

    def _finish_job(self, job: Job) -> None:
        self.cluster.release(job.name)
        job.end_time = self.clock.now
        if job.fault is not None:
            job.state = JobState.FAILED
            self.history.append((self.clock.now, job.name, f"failed:{job.fault.mode}"))
            if self.config.requeue_on_failure and job.attempts <= job.max_retries:
                self._requeue(job)
            return
        if job.duration_seconds > self.config.walltime_limit_seconds:
            # the job was cut by the wall-time limit before finishing
            job.state = JobState.TIMEOUT
            self.history.append((self.clock.now, job.name, "timeout"))
            if self.config.requeue_on_timeout and job.attempts <= job.max_retries:
                # model iterative training: remaining work shrinks on requeue
                job.duration_seconds -= self.config.walltime_limit_seconds
                self._requeue(job)
            return
        job.state = JobState.COMPLETED
        self.history.append((self.clock.now, job.name, "complete"))
        if job.payload is not None:
            job.payload(job)

    def _requeue(self, job: Job) -> None:
        job.state = JobState.PENDING
        job.fault = None
        heapq.heappush(self._pending, (-job.priority, next(self._seq), job.name))
        self.history.append((self.clock.now, job.name, "requeue"))

    # ------------------------------------------------------------------ #
    def run(self, max_events: int = 1_000_000) -> None:
        """Run the simulation until every job reaches a terminal state."""
        self._try_start_jobs()
        events_processed = 0
        while self._events:
            events_processed += 1
            if events_processed > max_events:
                raise RuntimeError("scheduler exceeded the maximum number of events")
            event_time, _seq, name = heapq.heappop(self._events)
            if event_time > self.clock.now:
                self.clock.advance(event_time - self.clock.now, label=f"run:{name}")
            job = self.jobs[name]
            if job.state is JobState.RUNNING:
                self._finish_job(job)
            self._try_start_jobs()

    # ------------------------------------------------------------------ #
    def states(self) -> dict[str, JobState]:
        return {name: job.state for name, job in self.jobs.items()}

    def makespan(self) -> float:
        """Total simulated time from first submission to last completion."""
        ends = [j.end_time for j in self.jobs.values() if not _isnan(j.end_time)]
        return float(max(ends)) if ends else 0.0


def _isnan(value: float) -> bool:
    return value != value
