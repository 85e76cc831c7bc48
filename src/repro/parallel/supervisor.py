"""Crash-resilient supervision over the process execution backend.

:class:`ProcessTaskPool` survives task *exceptions* but not task
*crashes*: a SIGKILL'd worker (OOM killer, preempted HPC node, a real
``kill -9``) flips the underlying :class:`~concurrent.futures.process.
ProcessPoolExecutor` into ``BrokenProcessPool``, which poisons every
in-flight future and every later submit.  :class:`SupervisedTaskPool`
is the supervisor-tree layer that turns worker death back into an
ordinary, bounded retry:

* **Crash detection.**  The executor's manager thread already watches
  each worker's sentinel pipe and fails all in-flight futures with
  ``BrokenProcessPool`` the moment one dies; the supervisor intercepts
  exactly that error class (plus synchronous submit-time breakage), and
  a heartbeat wake additionally probes pool health so a broken-but-idle
  pool is respawned before the next caller trips over it.
* **Transparent respawn.**  The payload was pickled exactly once up
  front (:meth:`ProcessTaskPool.from_bytes`), so replacing a crashed
  pool costs only process spawns.  Respawn is attempted with
  exponential backoff; in-flight tasks of the dead generation are
  re-dispatched into the fresh pool.
* **Poison-task quarantine.**  A task whose execution has now crashed
  the pool ``max_task_retries`` times is *returned* as a structured
  :class:`TaskFailure` instead of being retried forever — the caller
  decides whether that is fatal (streaming turns it into a failed shard
  outcome subject to ``on_shard_failure``).
  Ordinary task exceptions are **never** retried: they propagate
  unchanged, which is what keeps the no-fault path bit-identical to an
  unsupervised pool.
* **Per-task deadlines.**  ``task_deadline_s`` resolves an overdue
  task's future with :class:`TimeoutError` *without* tearing down the
  pool — healthy workers keep draining their queue; the overdue
  worker's eventual result is discarded.
* **Degrade-to-thread escape hatch.**  If respawn itself fails
  ``max_respawn_failures`` consecutive times (fd/PID exhaustion, a
  broken spawn environment) and ``degrade_to_thread=True``, the
  supervisor unpickles the payload locally and finishes the work on an
  in-process thread pool — slower, but the run completes and results
  are unchanged because payload task bodies are pure.

Because crash-attribution at pool granularity is inherently collective
(``BrokenProcessPool`` does not say *which* task's worker died),
innocent tasks in flight during someone else's crash also get a crash
mark; ``max_task_retries`` therefore defaults high enough that only a
task that *repeatedly* accompanies pool death is quarantined.

Supervision telemetry lands in the active (or injected)
:class:`~repro.telemetry.MetricsRegistry`: ``supervision.respawns``,
``supervision.redispatches``, ``supervision.quarantined``,
``supervision.deadline_timeouts``, ``supervision.degraded`` counters
and a ``supervision.respawn_s`` restart-latency histogram.

:class:`CircuitBreaker` lives here too: the serving layer health-checks
each model replica with a consecutive-failure breaker (closed → open →
half-open probe → closed) so :class:`~repro.serving.service.
ScoringService` routes around a sick replica while it restarts — see
``docs/resilience.md`` for the full state machine.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Future,
    InvalidStateError,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.parallel.pool import (
    PoolClosedError,
    ProcessTaskPool,
    _AttemptedTask,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry import current as current_telemetry
from repro.utils.logging import get_logger

__all__ = [
    "CircuitBreaker",
    "RespawnExhausted",
    "SupervisedTaskPool",
    "SupervisionConfig",
    "TaskFailure",
    "TaskQuarantined",
]

logger = get_logger("repro.parallel.supervisor")

_UNSET = object()


class RespawnExhausted(RuntimeError):
    """Respawning the worker pool failed repeatedly and degrade was off."""


@dataclass(frozen=True)
class TaskFailure:
    """Structured verdict for a quarantined (or unrecoverable) task.

    Returned as the task's *result* — not raised — so batch callers can
    triage one poison task without losing the rest of the batch.
    """

    task: Any
    attempts: int
    error: str
    kind: str = "crash"

    def to_exception(self) -> "TaskQuarantined":
        return TaskQuarantined(self)


class TaskQuarantined(RuntimeError):
    """A :class:`TaskFailure` escalated by a caller that cannot skip it."""

    def __init__(self, failure: TaskFailure) -> None:
        super().__init__(
            f"task {failure.task!r} was quarantined after crashing its "
            f"worker pool {failure.attempts} time(s): {failure.error}"
        )
        self.failure = failure


@dataclass(frozen=True)
class SupervisionConfig:
    """Knobs for :class:`SupervisedTaskPool`.

    These are robustness/throughput knobs in the same sense as
    ``workers`` or ``backend``: they never enter checkpoint or shard
    keys, and with no fault firing they change no result bits.
    """

    max_task_retries: int = 3
    max_respawn_failures: int = 3
    respawn_backoff_s: float = 0.05
    respawn_backoff_factor: float = 2.0
    task_deadline_s: float | None = None
    degrade_to_thread: bool = False
    heartbeat_interval_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_task_retries < 1:
            raise ValueError("max_task_retries must be >= 1")
        if self.max_respawn_failures < 1:
            raise ValueError("max_respawn_failures must be >= 1")
        if self.respawn_backoff_s < 0:
            raise ValueError("respawn_backoff_s must be >= 0")
        if self.respawn_backoff_factor < 1.0:
            raise ValueError("respawn_backoff_factor must be >= 1")
        if self.task_deadline_s is not None and self.task_deadline_s <= 0:
            raise ValueError("task_deadline_s must be positive when set")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")


class _Supervised:
    """Coordinator-side record of one supervised task."""

    __slots__ = ("task", "future", "attempts", "deadline_s", "deadline", "pool")

    def __init__(self, task: Any, deadline_s: float | None) -> None:
        self.task = task
        self.future: Future = Future()
        self.attempts = 0
        self.deadline_s = deadline_s
        self.deadline: float | None = None
        self.pool: Any = None


class SupervisedTaskPool:
    """A :class:`ProcessTaskPool` under supervision (see module docs).

    Drop-in for the call sites that used a bare pool: ``submit(task)``
    returns a future, ``run(task)`` blocks for the result, ``warm()``
    pre-spawns, ``close()`` is idempotent and the object is a context
    manager.  The differences are behavioural: worker death respawns
    the pool and re-dispatches, poison tasks resolve to
    :class:`TaskFailure`, and overdue tasks resolve to ``TimeoutError``
    when a deadline is configured.
    """

    def __init__(
        self,
        payload: Any,
        max_workers: int = 1,
        config: SupervisionConfig | None = None,
        registry: MetricsRegistry | None = None,
        pool_factory: Callable[[], Any] | None = None,
    ) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.config = config or SupervisionConfig()
        self.max_workers = int(max_workers)
        self._payload_bytes = pickle.dumps(payload)
        self._payload_type = type(payload).__name__
        registry = registry if registry is not None else current_telemetry().registry
        self._m_respawns = registry.counter("supervision.respawns")
        self._m_redispatches = registry.counter("supervision.redispatches")
        self._m_quarantined = registry.counter("supervision.quarantined")
        self._m_deadlines = registry.counter("supervision.deadline_timeouts")
        self._m_degraded = registry.counter("supervision.degraded")
        self._m_respawn_s = registry.histogram("supervision.respawn_s")
        if pool_factory is None:
            pool_factory = lambda: ProcessTaskPool.from_bytes(  # noqa: E731
                self._payload_bytes, self.max_workers, self._payload_type
            )
        self._pool_factory = pool_factory
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._records: set[_Supervised] = set()
        self._crashed: deque[tuple[_Supervised | None, BaseException | None]] = deque()
        self._pending: deque[_Supervised] = deque()
        self._closed = False
        self._degraded = False
        self._local_payload: Any = None
        self._thread_pool: ThreadPoolExecutor | None = None
        self._pool: Any = self._pool_factory()
        self._supervisor = threading.Thread(
            target=self._supervise, name="pool-supervisor", daemon=True
        )
        self._supervisor.start()

    # -- public surface ------------------------------------------------ #
    @property
    def payload_nbytes(self) -> int:
        return len(self._payload_bytes)

    def worker_pids(self) -> list[int]:
        """PIDs of the current generation's live workers."""
        with self._lock:
            pool = self._pool
        if pool is None or not hasattr(pool, "worker_pids"):
            return []
        return pool.worker_pids()

    def submit(self, task: Any, deadline_s: Any = _UNSET) -> Future:
        """Dispatch one task under supervision; returns its future.

        The future resolves with the task's result, with the task's own
        exception (never retried), with :class:`TaskFailure` after
        quarantine, or with ``TimeoutError`` past its deadline.
        """
        if deadline_s is _UNSET:
            deadline_s = self.config.task_deadline_s
        with self._lock:
            if self._closed:
                raise PoolClosedError(type(self).__name__, self._payload_type)
            record = _Supervised(task, deadline_s)
            self._records.add(record)
        self._dispatch(record)
        return record.future

    def run(self, task: Any, deadline_s: Any = _UNSET) -> Any:
        """Dispatch one task and block for its (possibly failed) result."""
        return self.submit(task, deadline_s=deadline_s).result()

    def warm(self, wait: bool = False):
        """Pre-spawn the first worker of the current generation."""
        with self._lock:
            if self._closed:
                raise PoolClosedError(type(self).__name__, self._payload_type)
            pool = self._pool
        if pool is None:
            return None
        return pool.warm(wait=wait)

    def close(self) -> None:
        """Shut down workers and the supervisor thread; idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            stranded = list(self._pending)
            self._pending.clear()
            stranded.extend(r for r, _ in self._crashed if r is not None)
            self._crashed.clear()
            thread_pool = self._thread_pool
            self._cond.notify_all()
        for record in stranded:
            self._resolve(
                record,
                exception=PoolClosedError(type(self).__name__, self._payload_type),
            )
        if pool is not None:
            pool.close()
        if thread_pool is not None:
            thread_pool.shutdown(wait=True)
        self._supervisor.join(timeout=10.0)

    def __enter__(self) -> "SupervisedTaskPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- dispatch & completion ----------------------------------------- #
    def _dispatch(self, record: _Supervised) -> None:
        with self._cond:
            if record.future.done():
                self._records.discard(record)
                return
            if self._closed:
                closed_error = PoolClosedError(
                    type(self).__name__, self._payload_type
                )
            else:
                closed_error = None
                record.attempts += 1
                if record.deadline_s is not None:
                    # Per-attempt deadline: respawn/backoff time is not
                    # charged against the task body's budget.
                    record.deadline = time.monotonic() + record.deadline_s
                    self._cond.notify_all()
                pool = self._pool
                degraded = self._degraded
        if closed_error is not None:
            self._resolve(record, exception=closed_error)
            return
        if degraded:
            self._dispatch_degraded(record)
            return
        if pool is None:
            with self._cond:
                record.attempts -= 1
                self._pending.append(record)
                self._cond.notify_all()
            return
        record.pool = pool
        try:
            inner = pool.submit(_AttemptedTask(record.task, record.attempts))
        except (PoolClosedError, BrokenExecutor) as error:
            # The pool died before this attempt launched; don't charge
            # the task for it.
            with self._lock:
                record.attempts -= 1
            self._note_crash(record, error)
            return
        inner.add_done_callback(partial(self._on_done, record))

    def _dispatch_degraded(self, record: _Supervised) -> None:
        with self._lock:
            if self._thread_pool is None:
                self._local_payload = pickle.loads(self._payload_bytes)
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="degraded-worker",
                )
            executor = self._thread_pool
            payload = self._local_payload
        inner = executor.submit(payload.run_task, record.task)
        inner.add_done_callback(partial(self._on_done, record))

    def _on_done(self, record: _Supervised, inner: Future) -> None:
        if inner.cancelled():
            self._note_crash(record, None)
            return
        error = inner.exception()
        if error is None:
            self._resolve(record, result=inner.result())
        elif isinstance(error, BrokenExecutor):
            self._note_crash(record, error)
        else:
            # The task's own exception: propagate, never retry —
            # identical semantics to an unsupervised pool.
            self._resolve(record, exception=error)

    def _note_crash(
        self, record: _Supervised | None, error: BaseException | None
    ) -> None:
        with self._cond:
            if self._closed:
                if record is not None:
                    self._records.discard(record)
                    stranded = record
                else:
                    stranded = None
            else:
                self._crashed.append((record, error))
                self._cond.notify_all()
                return
        if stranded is not None:
            self._resolve(
                stranded,
                exception=PoolClosedError(type(self).__name__, self._payload_type),
            )

    def _resolve(
        self, record: _Supervised, result: Any = _UNSET, exception: BaseException | None = None
    ) -> None:
        with self._cond:
            self._records.discard(record)
            self._cond.notify_all()
        try:
            if exception is not None:
                record.future.set_exception(exception)
            else:
                record.future.set_result(result)
        except InvalidStateError:
            # Already resolved (deadline fired while the worker was
            # finishing, or a shutdown race); the late outcome is moot.
            pass

    # -- supervisor thread --------------------------------------------- #
    def _supervise(self) -> None:
        heartbeat = self.config.heartbeat_interval_s
        while True:
            with self._cond:
                while True:
                    if self._closed:
                        return
                    if self._crashed:
                        crashed = list(self._crashed)
                        self._crashed.clear()
                        break
                    if self._pending and self._pool is None and not self._degraded:
                        # A prior respawn exhaustion left us poolless;
                        # new submits re-trigger respawn.
                        crashed = []
                        break
                    wait_s = self._next_wait_s(heartbeat)
                    if wait_s is not None and wait_s <= 0:
                        crashed = []
                        break
                    self._cond.wait(wait_s)
            self._expire_deadlines()
            broken = False
            with self._lock:
                pool = self._pool
            if pool is not None and hasattr(pool, "is_broken"):
                broken = pool.is_broken()
            if crashed or broken or self._needs_pool():
                self._handle_crash_event(crashed)

    def _needs_pool(self) -> bool:
        with self._lock:
            return bool(
                self._pending and self._pool is None and not self._degraded
            )

    def _next_wait_s(self, heartbeat: float) -> float | None:
        """Seconds the supervisor may sleep (holding the lock)."""
        deadlines = [
            r.deadline
            for r in self._records
            if r.deadline is not None and not r.future.done()
        ]
        if deadlines:
            return max(min(deadlines) - time.monotonic(), 0.0)
        if self._records:
            return heartbeat  # heartbeat pool-health probe while busy
        return None  # fully idle: sleep until notified

    def _expire_deadlines(self) -> None:
        now = time.monotonic()
        with self._lock:
            overdue = [
                r
                for r in self._records
                if r.deadline is not None and r.deadline <= now and not r.future.done()
            ]
        for record in overdue:
            self._m_deadlines.inc()
            logger.warning(
                "supervised task %r exceeded its %.3fs deadline (attempt %d); "
                "failing the future and leaving the worker to finish",
                record.task,
                record.deadline_s,
                record.attempts,
            )
            self._resolve(
                record,
                exception=TimeoutError(
                    f"supervised task {record.task!r} exceeded its "
                    f"{record.deadline_s}s deadline on attempt {record.attempts}"
                ),
            )

    def _handle_crash_event(
        self, crashed: list[tuple[_Supervised | None, BaseException | None]]
    ) -> None:
        cfg = self.config
        redispatch: list[_Supervised] = []
        quarantined: list[_Supervised] = []
        crashed_pools = set()
        with self._lock:
            for record, error in crashed:
                if record is None:
                    continue
                if record.pool is not None:
                    crashed_pools.add(id(record.pool))
                if record.future.done():
                    self._records.discard(record)
                    continue
                if record.attempts >= cfg.max_task_retries:
                    quarantined.append(record)
                else:
                    redispatch.append(record)
            pool = self._pool
            must_respawn = pool is None or id(pool) in crashed_pools or (
                hasattr(pool, "is_broken") and pool.is_broken()
            )
            if must_respawn:
                self._pool = None
        for record in quarantined:
            self._m_quarantined.inc()
            last_error = next(
                (e for r, e in reversed(crashed) if r is record and e is not None),
                None,
            )
            logger.error(
                "quarantining poison task %r after %d pool crash(es): %s",
                record.task,
                record.attempts,
                last_error,
            )
            self._resolve(
                record,
                result=TaskFailure(
                    task=record.task,
                    attempts=record.attempts,
                    error=repr(last_error) if last_error is not None else "worker died",
                    kind="crash",
                ),
            )
        with self._cond:
            for record in redispatch:
                self._pending.append(record)
        if redispatch:
            self._m_redispatches.inc(len(redispatch))
            # Exponential per-task backoff before the costliest retry so
            # a crash loop slows down instead of spinning.
            worst = max(r.attempts for r in redispatch)
            delay = cfg.respawn_backoff_s * cfg.respawn_backoff_factor ** max(
                worst - 1, 0
            )
            if delay > 0:
                time.sleep(delay)
        if must_respawn and pool is not None:
            logger.warning(
                "worker pool (payload %s) is broken; respawning %d worker(s)",
                self._payload_type,
                self.max_workers,
            )
            pool.close()
        if must_respawn:
            self._respawn()
        self._drain_pending()

    def _respawn(self) -> None:
        cfg = self.config
        failures = 0
        while True:
            with self._lock:
                if self._closed or self._degraded:
                    return
            start = time.perf_counter()
            try:
                pool = self._pool_factory()
                if hasattr(pool, "warm"):
                    pool.warm(wait=True)
            except Exception as error:
                failures += 1
                logger.error(
                    "pool respawn attempt %d/%d failed: %s",
                    failures,
                    cfg.max_respawn_failures,
                    error,
                )
                if failures >= cfg.max_respawn_failures:
                    self._respawn_exhausted(error)
                    return
                time.sleep(
                    cfg.respawn_backoff_s
                    * cfg.respawn_backoff_factor ** (failures - 1)
                )
                continue
            elapsed = time.perf_counter() - start
            with self._lock:
                if self._closed:
                    stale = pool
                else:
                    stale = None
                    self._pool = pool
            if stale is not None:
                stale.close()
                return
            self._m_respawns.inc()
            self._m_respawn_s.observe(elapsed)
            logger.info(
                "worker pool respawned in %.3fs (payload %s, %d workers)",
                elapsed,
                self._payload_type,
                self.max_workers,
            )
            return

    def _respawn_exhausted(self, error: BaseException) -> None:
        cfg = self.config
        if cfg.degrade_to_thread:
            with self._lock:
                self._degraded = True
            self._m_degraded.inc()
            logger.error(
                "respawn failed %d time(s); degrading to an in-process "
                "thread pool (payload %s)",
                cfg.max_respawn_failures,
                self._payload_type,
            )
            return
        with self._cond:
            stranded = list(self._pending)
            self._pending.clear()
        for record in stranded:
            self._resolve(
                record,
                exception=RespawnExhausted(
                    f"respawning the worker pool failed "
                    f"{cfg.max_respawn_failures} consecutive time(s); "
                    f"last error: {error!r}"
                ),
            )

    def _drain_pending(self) -> None:
        while True:
            with self._cond:
                if not self._pending:
                    return
                if self._pool is None and not self._degraded:
                    return  # respawn exhausted; records already failed or waiting
                record = self._pending.popleft()
            self._dispatch(record)


# ---------------------------------------------------------------------- #
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
