"""Tests for the online scoring service (repro.serving)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.chem.complexes import ProteinLigandComplex
from repro.featurize.pipeline import collate_complexes
from repro.nn.tensor import no_grad
from repro.serving import (
    MicroBatcher,
    Overloaded,
    ResultCache,
    ScoringService,
    ServingConfig,
    content_key,
    model_fingerprint,
)
from repro.serving.requests import ScoreRequest
from repro.telemetry import MetricsRegistry


@pytest.fixture(scope="module")
def traffic(campaign):
    """Docked poses of one campaign site, as online request complexes."""
    site_name = campaign.database.sites()[0]
    site = campaign.sites[site_name]
    records = [r for r in campaign.database.records() if r.site_name == site_name][:12]
    assert records
    return [
        ProteinLigandComplex(site, r.pose, complex_id=r.compound_id, pose_id=r.pose_id)
        for r in records
    ]


# --------------------------------------------------------------------- #
# result cache
# --------------------------------------------------------------------- #
def test_cache_hit_miss_and_lru_eviction():
    cache = ResultCache(capacity=3)
    assert cache.get("a") is None  # miss
    cache.put("a", 1.0)
    cache.put("b", 2.0)
    cache.put("c", 3.0)
    assert cache.get("a") == 1.0  # hit refreshes recency: order is now b, c, a
    cache.put("d", 4.0)  # evicts LRU entry "b"
    assert cache.get("b") is None
    assert cache.get("c") == 3.0
    assert cache.get("d") == 4.0
    stats = cache.stats()
    assert stats.evictions == 1
    assert stats.size == 3
    assert stats.hits == 3 and stats.misses == 2
    assert stats.hit_rate == pytest.approx(3 / 5)


def test_cache_thread_safety_under_contention():
    cache = ResultCache(capacity=64)

    def worker(seed: int) -> None:
        for i in range(200):
            cache.put(f"k{(seed * 7 + i) % 100}", float(i))
            cache.get(f"k{i % 100}")

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(cache) <= 64


# --------------------------------------------------------------------- #
# micro-batcher
# --------------------------------------------------------------------- #
def test_batcher_coalesces_up_to_max_batch_size():
    batcher = MicroBatcher(max_batch_size=4, capacity=16)
    for item in range(6):
        assert batcher.put(item)
    assert list(batcher.next_batch().items) == [0, 1, 2, 3]
    assert list(batcher.next_batch().items) == [4, 5]


def _next_batch_in_thread(batcher: MicroBatcher, before_join=None):
    """Call ``next_batch()`` on a helper thread; the batch, or None if it
    is still blocked after the join timeout."""
    batches = []
    consumer = threading.Thread(target=lambda: batches.append(batcher.next_batch()), daemon=True)
    consumer.start()
    if before_join is not None:
        before_join()
    consumer.join(timeout=10.0)
    return None if consumer.is_alive() else batches[0]


def test_batcher_returns_underfull_queue_at_once():
    """An under-full queue leaves as one batch as soon as it is asked
    for, and a waiting consumer gets a lone item the moment it arrives."""
    batcher = MicroBatcher(max_batch_size=64, capacity=64)
    for item in ("a", "b", "c"):
        batcher.put(item)
    batch = _next_batch_in_thread(batcher)
    assert batch is not None, "next_batch() held an under-full queue open"
    assert list(batch.items) == ["a", "b", "c"]
    batch = _next_batch_in_thread(batcher, before_join=lambda: batcher.put("only"))
    assert batch is not None, "next_batch() held a lone item open"
    assert list(batch.items) == ["only"]


def test_batcher_close_drains_then_returns_none():
    batcher = MicroBatcher(max_batch_size=4, capacity=16)
    batcher.put("x")
    batcher.close()
    batch = batcher.next_batch()  # queued items still drain after close
    assert list(batch.items) == ["x"]
    assert batcher.next_batch() is None
    with pytest.raises(Exception):
        batcher.put("y")


# --------------------------------------------------------------------- #
# content addressing
# --------------------------------------------------------------------- #
def test_content_key_is_deterministic_and_discriminating(workbench, traffic):
    fp = model_fingerprint(workbench.coherent_fusion)
    assert fp == model_fingerprint(workbench.coherent_fusion)
    key0 = content_key(traffic[0], fp)
    assert key0 == content_key(traffic[0], fp)
    assert key0 != content_key(traffic[1], fp)  # different pose
    fp_other = model_fingerprint(workbench.mid_fusion)  # different weights
    assert fp != fp_other
    assert key0 != content_key(traffic[0], fp_other)


# --------------------------------------------------------------------- #
# backpressure
# --------------------------------------------------------------------- #
class _SlowBackend:
    """Deterministically slow backend to hold requests in flight."""

    name = "slow-stub"

    def __init__(self, delay_s: float = 0.25) -> None:
        self.delay_s = delay_s

    def fingerprint(self) -> str:
        return "slow-stub-fingerprint"

    def score_batch(self, batch: dict) -> np.ndarray:
        time.sleep(self.delay_s)
        return np.zeros(len(batch["ids"]), dtype=np.float64)


def test_backpressure_rejects_when_queue_full(workbench, traffic):
    config = ServingConfig(max_batch_size=1, num_replicas=1, queue_capacity=2, cache_enabled=False)
    service = ScoringService(
        backend=_SlowBackend(), featurizer=workbench.featurizer, config=config
    ).start()
    try:
        admitted = [service.submit(traffic[0]), service.submit(traffic[1])]
        with pytest.raises(Overloaded):
            service.submit(traffic[2])
        snap = service.snapshot()
        assert snap.rejected == 1
        for handle in admitted:
            assert handle.result(timeout=30.0).score == 0.0
        # capacity freed: the previously rejected request is admitted now
        assert service.submit(traffic[2]).result(timeout=30.0).score == 0.0
    finally:
        service.close()


# --------------------------------------------------------------------- #
# end-to-end service behaviour
# --------------------------------------------------------------------- #
def _direct_scores(model, samples, batch_size: int) -> list[float]:
    """Plain forward passes over consecutive ``batch_size`` chunks."""
    scores: list[float] = []
    for begin in range(0, len(samples), batch_size):
        batch = collate_complexes(samples[begin : begin + batch_size])
        with no_grad():
            scores.extend(float(v) for v in model(batch).numpy())
    return scores


def test_service_scores_bit_identical_to_direct_forward(workbench, traffic):
    config = ServingConfig(max_batch_size=4, num_replicas=2, queue_capacity=64)
    with ScoringService(
        model=workbench.coherent_fusion, featurizer=workbench.featurizer, config=config
    ) as service:
        # one request in flight at a time: every batch holds one pose
        cold = [service.submit(c).result(timeout=60.0) for c in traffic]
        pending = [service.submit(ScoreRequest(complex_=c, key=f"nocache-{i}"))
                   for i, c in enumerate(traffic)]
        online = [p.result(timeout=60.0) for p in pending]

    samples = [workbench.featurizer.featurize(c) for c in traffic]
    model = workbench.coherent_fusion
    assert [r.score for r in cold] == _direct_scores(model, samples, 1)
    # concurrent requests coalesce on arrival timing, so batch boundaries (and
    # therefore the graph segment-sum orderings) may differ by the last ulp
    np.testing.assert_allclose(
        [r.score for r in online], _direct_scores(model, samples, 4), rtol=1e-12, atol=1e-12
    )


def test_warm_cache_repeat_hit_rate(workbench, traffic):
    config = ServingConfig(max_batch_size=4, num_replicas=2, queue_capacity=64)
    with ScoringService(
        model=workbench.coherent_fusion, featurizer=workbench.featurizer, config=config
    ) as service:
        cold = [service.submit(c).result(timeout=60.0) for c in traffic]
        assert not any(r.cached for r in cold)
        service.metrics.reset()
        warm = [service.submit(c).result(timeout=60.0) for c in traffic]
        snap = service.snapshot()
    assert all(r.cached for r in warm)
    assert snap.cache_hit_rate >= 0.99
    assert [r.score for r in warm] == [r.score for r in cold]


def test_service_drain_and_metrics(workbench, traffic):
    config = ServingConfig(max_batch_size=4, num_replicas=2, queue_capacity=64)
    service = ScoringService(
        model=workbench.coherent_fusion, featurizer=workbench.featurizer, config=config
    ).start()
    handles = [service.submit(c) for c in traffic]
    assert service.drain(timeout=60.0)
    assert all(h.done for h in handles)
    snap = service.snapshot()
    assert snap.completed == len(traffic)
    assert snap.requests_per_second > 0
    assert snap.latency_p99_ms >= snap.latency_p50_ms >= 0
    assert 0 < snap.mean_batch_size <= config.max_batch_size
    service.close()
    with pytest.raises(RuntimeError):
        service.submit(traffic[0])
    with pytest.raises(RuntimeError):
        service.start()  # closed services cannot be restarted


class _GatedBackend:
    """Holds every batch until ``gate`` is set; records each batch's size
    and how many batches the replica pool held when it started."""

    name = "gated-stub"

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.cond = threading.Condition()
        self.sizes: list[int] = []
        self.pool_loads: list[int] = []
        self.pool = None

    def fingerprint(self) -> str:
        return "gated-stub"

    def score_batch(self, batch: dict) -> np.ndarray:
        with self.cond:
            self.sizes.append(len(batch["ids"]))
            self.pool_loads.append(sum(self.pool.loads()))
            self.cond.notify_all()
        assert self.gate.wait(timeout=60.0)
        return np.zeros(len(batch["ids"]), dtype=np.float64)

    def wait_started(self, count: int) -> None:
        with self.cond:
            assert self.cond.wait_for(lambda: len(self.sizes) >= count, timeout=30.0)


@pytest.mark.parametrize("queued", [3, 6])
@pytest.mark.parametrize("num_replicas", [1, 2])
def test_online_batch_is_cut_when_a_replica_frees(workbench, traffic, num_replicas, queued):
    """At most ``num_replicas`` online batches are outstanding; requests
    queued while every replica is busy leave together, up to
    ``max_batch_size`` a batch, the moment a replica frees."""
    max_batch = 4
    backend = _GatedBackend()
    config = ServingConfig(
        max_batch_size=max_batch, num_replicas=num_replicas, queue_capacity=32, cache_enabled=False
    )
    service = ScoringService(backend=backend, featurizer=workbench.featurizer, config=config).start()
    backend.pool = service.pool
    complexes = [traffic[i % len(traffic)] for i in range(num_replicas + queued)]
    try:
        handles = []
        for index in range(num_replicas):  # occupy every replica with a lone request
            handles.append(service.submit(complexes[index]))
            backend.wait_started(index + 1)
        for complex_ in complexes[num_replicas:]:
            handles.append(service.submit(complex_))
        time.sleep(0.05)
        # every replica is blocked: the queued requests wait in the batcher
        assert backend.sizes == [1] * num_replicas
        assert sum(service.pool.loads()) == num_replicas
        assert service.batcher.pending() == queued
        backend.gate.set()
        for handle in handles:
            handle.result(timeout=60.0)
        assert service.drain(timeout=60.0)
        snap = service.snapshot()
    finally:
        backend.gate.set()
        service.close()
    assert max(backend.pool_loads) <= num_replicas
    assert backend.sizes[:num_replicas] == [1] * num_replicas
    # the first freed replica takes min(queued, max_batch); any remainder
    # leaves with the next (two replicas may start them in either order)
    coalesced = [min(queued, max_batch)] + ([queued - max_batch] if queued > max_batch else [])
    assert sorted(backend.sizes[num_replicas:]) == sorted(coalesced)
    assert snap.submitted == snap.completed + snap.failed == num_replicas + queued
    assert snap.failed == 0
    # every online batch fed the queue-wait histogram; the coalesced
    # batches waited behind the blocked replicas
    queue_wait = service.metrics.registry.snapshot()["histograms"]["serving.queue_wait_s"]
    assert queue_wait["count"] == len(backend.sizes)
    assert queue_wait["max"] >= 0.05


# --------------------------------------------------------------------- #
# replica-pool lifecycle
# --------------------------------------------------------------------- #
class _CountingBackend:
    """Minimal in-thread ScoringBackend for pool lifecycle tests."""

    name = "counting"

    def fingerprint(self) -> str:
        return "counting"

    def score_batch(self, batch) -> np.ndarray:
        return np.zeros(1)


class TestReplicaPoolLifecycle:
    @staticmethod
    def _drain(pool, expected, timeout=10.0):
        deadline = time.time() + timeout
        while sum(pool.completed_batches()) < expected:
            assert time.time() < deadline, pool.completed_batches()
            time.sleep(0.005)

    def test_close_then_start_restarts_with_fresh_replicas(self):
        """Regression: restart used to re-start() the finished worker
        threads — ``RuntimeError: threads can only be started once`` —
        and left every replica marked closed."""
        from repro.serving import ReplicaPool

        pool = ReplicaPool([_CountingBackend(), _CountingBackend()])
        pool.start()
        for _ in range(4):
            pool.submit(lambda i, b: b.score_batch(None))
        pool.close()
        assert sum(pool.completed_batches()) == 4

        pool.start()
        # fresh replicas: per-replica counters restart from zero
        assert pool.completed_batches() == [0, 0]
        for _ in range(3):
            pool.submit(lambda i, b: b.score_batch(None))
        self._drain(pool, 3)
        pool.close()
        assert sum(pool.completed_batches()) == 3

    def test_start_is_idempotent_while_running(self):
        from repro.serving import ReplicaPool

        pool = ReplicaPool([_CountingBackend()])
        pool.start()
        pool.start()
        pool.submit(lambda i, b: None)
        self._drain(pool, 1)
        pool.close()

    def test_submit_requires_start(self):
        from repro.serving import ReplicaPool

        pool = ReplicaPool([_CountingBackend()])
        with pytest.raises(RuntimeError, match="before start"):
            pool.submit(lambda i, b: None)
        pool.start()
        pool.close()
        with pytest.raises(RuntimeError, match="before start"):
            pool.submit(lambda i, b: None)


# --------------------------------------------------------------------- #
# replica circuit breaker
# --------------------------------------------------------------------- #
class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def test_full_cycle_closed_open_halfopen_closed(self):
        from repro.serving import CircuitBreaker

        clock = _FakeClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            name="replica-0",
            failure_threshold=3,
            reset_timeout_s=10.0,
            registry=registry,
            clock=clock,
        )
        assert breaker.state == "closed"
        # a success resets the consecutive-failure streak
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # third consecutive: trips open
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.seconds_until_probe() == pytest.approx(10.0)

        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.peek_allow()
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe in flight
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

        snap = registry.snapshot()
        assert snap["counters"]["supervision.breaker_opened"] == 1
        assert snap["gauges"]["supervision.breaker_open_s"] == pytest.approx(10.0)

    def test_half_open_probe_failure_reopens(self):
        from repro.serving import CircuitBreaker

        clock = _FakeClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=5.0, registry=registry, clock=clock
        )
        assert breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        assert breaker.record_failure()  # probe failed: reopen for a full window
        assert breaker.state == "open"
        assert not breaker.allow()
        assert registry.snapshot()["counters"]["supervision.breaker_opened"] == 2

    def test_validation(self):
        from repro.serving import CircuitBreaker

        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="reset_timeout_s"):
            CircuitBreaker(reset_timeout_s=0.0)


class TestCircuitBreakerEdges:
    @pytest.mark.parametrize("threshold", [1, 2, 5])
    def test_opens_exactly_at_the_threshold(self, threshold):
        from repro.serving import CircuitBreaker

        breaker = CircuitBreaker(
            failure_threshold=threshold, registry=MetricsRegistry(), clock=_FakeClock()
        )
        for _ in range(threshold - 1):
            assert not breaker.record_failure()
            assert breaker.state == "closed"
            assert breaker.allow()
        assert breaker.record_failure()
        assert breaker.state == "open"

    def test_peek_allow_never_claims_the_probe(self):
        from repro.serving import CircuitBreaker

        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=2.0, registry=MetricsRegistry(), clock=clock
        )
        breaker.record_failure()
        assert not breaker.peek_allow()
        clock.advance(2.0)
        for _ in range(3):
            assert breaker.peek_allow()
        assert breaker.allow()
        # the probe is in flight: neither look nor claim admits another
        assert not breaker.peek_allow()
        assert not breaker.allow()

    def test_seconds_until_probe_counts_down(self):
        from repro.serving import CircuitBreaker

        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=10.0, registry=MetricsRegistry(), clock=clock
        )
        assert breaker.seconds_until_probe() == 0.0
        breaker.record_failure()
        clock.advance(3.0)
        assert breaker.seconds_until_probe() == pytest.approx(7.0)
        clock.advance(7.0)
        assert breaker.seconds_until_probe() == 0.0

    def test_failure_while_open_restarts_the_window_without_a_new_trip(self):
        from repro.serving import CircuitBreaker

        clock = _FakeClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=10.0, registry=registry, clock=clock
        )
        assert breaker.record_failure()
        clock.advance(4.0)
        assert not breaker.record_failure()  # already open: not a fresh trip
        assert breaker.state == "open"
        assert breaker.seconds_until_probe() == pytest.approx(10.0)
        snap = registry.snapshot()
        assert snap["counters"]["supervision.breaker_opened"] == 1
        assert snap["gauges"]["supervision.breaker_open_s"] == pytest.approx(4.0)

    def test_open_time_accumulates_across_trips(self):
        from repro.serving import CircuitBreaker

        clock = _FakeClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=10.0, registry=registry, clock=clock
        )
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()  # failed probe: second trip
        clock.advance(12.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        snap = registry.snapshot()
        assert snap["counters"]["supervision.breaker_opened"] == 2
        assert snap["gauges"]["supervision.breaker_open_s"] == pytest.approx(22.0)

    def test_success_while_closed_records_no_open_time(self):
        from repro.serving import CircuitBreaker

        clock = _FakeClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(failure_threshold=2, registry=registry, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        breaker.record_success()
        assert breaker.state == "closed"
        snap = registry.snapshot()
        assert snap["counters"].get("supervision.breaker_opened", 0) == 0
        assert snap["gauges"].get("supervision.breaker_open_s", 0.0) == 0.0

    def test_defaults_to_the_active_telemetry_registry(self):
        from repro.serving import CircuitBreaker
        from repro.telemetry import Telemetry, activate

        bundle = Telemetry.disabled()
        with activate(bundle):
            breaker = CircuitBreaker(failure_threshold=1, clock=_FakeClock())
        breaker.record_failure()
        assert bundle.registry.snapshot()["counters"]["supervision.breaker_opened"] == 1

    def test_concurrent_allow_admits_exactly_one_probe(self):
        from repro.serving import CircuitBreaker

        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, registry=MetricsRegistry(), clock=clock
        )
        breaker.record_failure()
        clock.advance(1.0)
        start = threading.Barrier(8)
        admitted = []

        def race():
            start.wait()
            admitted.append(breaker.allow())

        threads = [threading.Thread(target=race) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert sorted(admitted) == [False] * 7 + [True]
