"""The online scoring service facade.

``ScoringService`` turns a trained fusion model into a request/response
scorer: callers submit posed complexes and receive pK predictions, while
internally requests flow through admission control (bounded queue with
explicit ``Overloaded`` rejection), a content-addressed result cache, a
demand-driven micro-batcher and ``num_replicas`` model replica threads.

Callers use :meth:`submit` (a future-style handle) or :meth:`score` (its
blocking wrapper).  Each request is admitted individually.  Each replica
thread pulls its own batches: an idle replica takes whatever is queued,
so batch composition depends on arrival timing.  A failed batch fails
its callers, and the replica takes the next batch.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.chem.complexes import ProteinLigandComplex
from repro.featurize.engine import FeaturePipeline
from repro.featurize.pipeline import FeaturizedComplex, collate_complexes
from repro.nn.module import Module
from repro.serving.batcher import MicroBatch, MicroBatcher, QueueClosed
from repro.serving.cache import ResultCache
from repro.serving.metrics import MetricsSnapshot, ServingMetrics
from repro.serving.requests import ScoreRequest, ScoreResponse
from repro.serving.workers import ModuleBackend, ScoringBackend
from repro.telemetry import MetricsRegistry
from repro.telemetry import current as current_telemetry
from repro.utils.logging import get_logger

logger = get_logger("repro.serving")


class Overloaded(RuntimeError):
    """Admission refused: the request queue is full (retry with backoff)."""


@dataclass
class ServingConfig:
    """Knobs of the online scoring service.

    Online batching is demand-driven: each of the ``num_replicas``
    replica threads cuts its next batch the moment it frees, holding
    everything queued up to ``max_batch_size``, so an idle service
    scores a lone request at once and a busy one coalesces with no
    timer.
    """

    max_batch_size: int = 8
    num_replicas: int = 2
    #: bound on admitted-but-incomplete requests (queued, batched or being
    #: scored); :meth:`ScoringService.submit` rejects beyond it
    queue_capacity: int = 64
    cache_capacity: int = 4096
    cache_enabled: bool = True


class DrainResult:
    """Outcome of :meth:`ScoringService.drain` — truthy when fully drained.

    Evaluates like the old boolean (``if service.drain(...)`` keeps
    working) while naming exactly which admitted request ids were still
    pending when the timeout struck, so operators can chase stuck
    requests instead of staring at a bare ``False``.
    """

    def __init__(self, completed: bool, pending: tuple[str, ...] = ()) -> None:
        self.completed = completed
        self.pending = pending

    def __bool__(self) -> bool:
        return self.completed

    def __repr__(self) -> str:
        if self.completed:
            return "DrainResult(completed=True)"
        return f"DrainResult(completed=False, pending={list(self.pending)!r})"


class PendingScore:
    """Future-style handle to an in-flight (or cache-resolved) request."""

    def __init__(self, request: ScoreRequest) -> None:
        self.request = request
        self._event = threading.Event()
        self._response: ScoreResponse | None = None
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> ScoreResponse:
        """Block until the score is available (raises on service failure)."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"score for '{self.request.request_id}' not ready within {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response

    # internal resolution hooks -------------------------------------- #
    def _resolve(self, response: ScoreResponse) -> None:
        self._response = response
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


@dataclass
class _WorkItem:
    """One admitted cache-miss travelling through batcher and workers."""

    request: ScoreRequest
    sample: FeaturizedComplex
    pending: PendingScore
    submitted_at: float = field(default_factory=time.perf_counter)


class ScoringService:
    """Online scoring over a fusion model with batching, replicas and cache.

    Parameters
    ----------
    model:
        A trained module (any of the zoo: heads, Late/Mid/Coherent
        fusion) — wrapped in a :class:`ModuleBackend`.  Alternatively
        pass a ready-made backend via ``backend=``.
    featurizer:
        Featurizer shared with the offline pipeline so online samples
        are byte-identical to scoring-job samples.
    config:
        Service knobs (see :class:`ServingConfig`).
    """

    def __init__(
        self,
        model: Module | None = None,
        featurizer: FeaturePipeline | None = None,
        config: ServingConfig | None = None,
        backend: ScoringBackend | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if (model is None) == (backend is None):
            raise ValueError("provide exactly one of model= or backend=")
        if featurizer is None:
            raise ValueError("a FeaturePipeline is required")
        self.config = config or ServingConfig()
        cfg = self.config
        self.metrics = ServingMetrics(max_batch_size=cfg.max_batch_size, registry=registry)
        self.backend = backend if backend is not None else ModuleBackend(model)
        self.featurizer = featurizer
        self.batcher = MicroBatcher(max_batch_size=cfg.max_batch_size, capacity=cfg.queue_capacity)
        self.cache = ResultCache(cfg.cache_capacity)
        feature_cache = getattr(featurizer, "cache", None)
        if feature_cache is not None:
            self.metrics.registry.register_probe(
                "serving.feature_cache", lambda: vars(feature_cache.stats())
            )
        self.model_fp = self.backend.fingerprint()
        self._replicas: list[threading.Thread] = []
        self._inflight = 0
        self._pending_ids: set[str] = set()
        self._inflight_cond = threading.Condition()
        self._running = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------ #
    def start(self) -> "ScoringService":
        """Start the ``num_replicas`` replica threads."""
        if self._closed:
            raise RuntimeError("ScoringService cannot be restarted after close(); build a new one")
        if self._running:
            return self
        self._running = True
        self._replicas = [
            threading.Thread(
                target=self._replica_loop, args=(index,), name=f"serving-replica-{index}", daemon=True
            )
            for index in range(self.config.num_replicas)
        ]
        for thread in self._replicas:
            thread.start()
        return self

    def drain(self, timeout: float | None = None) -> DrainResult:
        """Block until every admitted request has completed.

        Returns a truthy :class:`DrainResult` on success.  On timeout the
        (falsy) result's ``pending`` names the request ids still in
        flight, and the same list is logged — so a stuck drain says *what*
        is stuck.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    stuck = tuple(sorted(self._pending_ids))
                    logger.warning(
                        "drain timed out after %.3fs with %d requests pending: %s",
                        timeout, len(stuck), ", ".join(stuck) or "<ids unknown>",
                    )
                    return DrainResult(completed=False, pending=stuck)
                self._inflight_cond.wait(timeout=remaining)
        return DrainResult(completed=True)

    def close(self) -> None:
        """Drain outstanding work, then stop all threads (terminal)."""
        if not self._running:
            return
        self._closed = True
        self.drain()
        self.batcher.close()
        for thread in self._replicas:
            thread.join()
        self._running = False

    def __enter__(self) -> "ScoringService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- online path ----------------------------------------------------- #
    def submit(self, item: ProteinLigandComplex | ScoreRequest) -> PendingScore:
        """Admit one request; returns a handle resolving to its response.

        Raises
        ------
        Overloaded
            When ``queue_capacity`` requests are already admitted but not
            yet completed (queued, batched or being scored).  Callers are
            expected to back off and retry; the service never silently
            drops work.
        """
        if not self._running:
            raise RuntimeError("ScoringService.submit before start()")
        arrived_at = time.perf_counter()
        request = item if isinstance(item, ScoreRequest) else ScoreRequest(complex_=item)
        key = request.resolve_key(self.model_fp)
        pending = PendingScore(request)

        if self.config.cache_enabled:
            hit = self.cache.get(key)
            if hit is not None:
                self.metrics.record_submission(cache_hit=True)
                self.metrics.record_completion(time.perf_counter() - arrived_at)
                pending._resolve(self._response(request, hit, cached=True))
                return pending

        # admission control: reject before paying for featurization
        with self._inflight_cond:
            if self._inflight >= self.config.queue_capacity:
                self.metrics.record_rejection()
                raise Overloaded(
                    f"{self._inflight} requests in flight (capacity {self.config.queue_capacity}); retry later"
                )
            self._inflight += 1
            self._pending_ids.add(request.request_id)

        try:
            self.metrics.record_submission(cache_hit=False)
            sample = self.featurizer.featurize(request.complex_)
            work = _WorkItem(request=request, sample=sample, pending=pending, submitted_at=arrived_at)
            if not self.batcher.put(work):
                # unreachable: admission bounds in-flight requests, and the
                # batcher queue can never exceed them
                raise RuntimeError("admission accounting violated: queue full after admission")
        except QueueClosed:
            # already counted as submitted but will never complete: close
            # the ledger so submitted == completed + failed stays true
            self.metrics.record_failure()
            self._finish_one(request.request_id)
            raise RuntimeError("ScoringService is closed") from None
        except BaseException:
            self.metrics.record_failure()
            self._finish_one(request.request_id)
            raise
        return pending

    def score(self, complex_: ProteinLigandComplex, timeout: float | None = 60.0) -> ScoreResponse:
        """Synchronous single-request convenience wrapper."""
        return self.submit(complex_).result(timeout=timeout)

    # -- introspection ----------------------------------------------------- #
    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot()

    # -- internals --------------------------------------------------------- #
    def _response(
        self, request: ScoreRequest, score: float, cached: bool, replica: int = -1,
        batch_size: int = 0, latency_s: float = 0.0,
    ) -> ScoreResponse:
        return ScoreResponse(
            request_id=request.request_id,
            complex_id=request.complex_.complex_id,
            pose_id=request.complex_.pose_id,
            score=float(score),
            key=request.key,
            cached=cached,
            replica=replica,
            batch_size=batch_size,
            latency_s=latency_s,
        )

    def _finish_one(self, request_id: str | None = None) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            if request_id is not None:
                self._pending_ids.discard(request_id)
            self._inflight_cond.notify_all()

    def _replica_loop(self, replica: int) -> None:
        """Take the next batch whenever this replica is free, until closed."""
        while (batch := self.batcher.next_batch()) is not None:
            self.metrics.record_queue_wait(batch.oldest_wait_s)
            self._execute(replica, batch)

    def _execute(self, replica: int, batch: MicroBatch) -> None:
        """Score one batch and resolve (or fail) every caller in it."""
        items: list[_WorkItem] = batch.items
        try:
            with current_telemetry().span("serving-batch") as span:
                span.set("replica", replica)
                span.set("batch_size", len(items))
                # the offline scoring jobs' collate: byte-identical batches
                collated = collate_complexes([w.sample for w in items])
                scores = self.backend.score_batch(collated)
            if scores.shape[0] != len(items):
                raise RuntimeError(
                    f"backend returned {scores.shape[0]} scores for {len(items)} requests"
                )
            self.metrics.record_batch(len(items))
            now = time.perf_counter()
            for work, score in zip(items, scores):
                if self.config.cache_enabled:
                    self.cache.put(work.request.key, float(score))
                latency = now - work.submitted_at
                self.metrics.record_completion(latency)
                work.pending._resolve(
                    self._response(
                        work.request, float(score), cached=False, replica=replica,
                        batch_size=len(items), latency_s=latency,
                    )
                )
        except BaseException as error:  # propagate to every waiting caller
            logger.error("scoring batch failed on replica %d: %s", replica, error)
            for work in items:
                self.metrics.record_failure()
                work.pending._fail(error)
        finally:
            for work in items:
                self._finish_one(work.request.request_id)
