"""Tests for the online scoring service (repro.serving)."""

from __future__ import annotations

import dataclasses
import importlib
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
    ModuleBackend,
    ServingConfig,
    content_key,
    model_fingerprint,
)
from repro.serving.requests import ScoreRequest
from repro.telemetry import Telemetry, activate


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
    and how many ``score_batch`` calls were in flight when it started."""

    name = "gated-stub"

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.cond = threading.Condition()
        self.sizes: list[int] = []
        self.in_flight = 0
        self.in_flight_seen: list[int] = []

    def fingerprint(self) -> str:
        return "gated-stub"

    def score_batch(self, batch: dict) -> np.ndarray:
        with self.cond:
            self.sizes.append(len(batch["ids"]))
            self.in_flight += 1
            self.in_flight_seen.append(self.in_flight)
            self.cond.notify_all()
        try:
            assert self.gate.wait(timeout=60.0)
            return np.zeros(len(batch["ids"]), dtype=np.float64)
        finally:
            with self.cond:
                self.in_flight -= 1

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
        assert backend.in_flight == num_replicas
        assert service.batcher.pending() == queued
        backend.gate.set()
        responses = [handle.result(timeout=60.0) for handle in handles]
        assert service.drain(timeout=60.0)
        snap = service.snapshot()
    finally:
        backend.gate.set()
        service.close()
    assert max(backend.in_flight_seen) <= num_replicas
    assert backend.sizes[:num_replicas] == [1] * num_replicas
    # each lone request occupied a different replica thread
    assert {r.replica for r in responses[:num_replicas]} == set(range(num_replicas))
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
# service construction and lifecycle
# --------------------------------------------------------------------- #
def _replica_threads() -> list[str]:
    return sorted(t.name for t in threading.enumerate() if t.name.startswith("serving-replica-"))


def test_serving_config_has_exactly_the_five_knobs():
    assert [f.name for f in dataclasses.fields(ServingConfig)] == [
        "max_batch_size", "num_replicas", "queue_capacity", "cache_capacity", "cache_enabled",
    ]


def test_serving_package_has_no_supervision_layer():
    """Replica threads live in the service: no pool, replica wrapper or
    circuit breaker is left to route around a backend they all share."""
    import repro.serving
    import repro.serving.workers as workers

    for name in ("CircuitBreaker", "ReplicaPool"):
        assert name not in repro.serving.__all__
        assert not hasattr(repro.serving, name)
    for name in ("ReplicaPool", "_Replica"):
        assert not hasattr(workers, name)
    with pytest.raises(ImportError):
        importlib.import_module("repro.serving.breaker")


@pytest.mark.parametrize("given", ["neither", "both"])
def test_service_requires_exactly_one_of_model_or_backend(workbench, given):
    kwargs = {"featurizer": workbench.featurizer}
    if given == "both":
        kwargs.update(model=workbench.coherent_fusion, backend=_SlowBackend(0.0))
    with pytest.raises(ValueError, match="exactly one"):
        ScoringService(**kwargs)


def test_service_requires_a_featurizer():
    with pytest.raises(ValueError, match="FeaturePipeline"):
        ScoringService(backend=_SlowBackend(0.0))


def test_submit_before_start_raises(workbench, traffic):
    service = ScoringService(backend=_SlowBackend(0.0), featurizer=workbench.featurizer)
    with pytest.raises(RuntimeError, match="before start"):
        service.submit(traffic[0])
    assert service.snapshot().submitted == 0


def test_start_is_idempotent_while_running(workbench, traffic):
    before = _replica_threads()
    config = ServingConfig(num_replicas=2, cache_enabled=False)
    service = ScoringService(backend=_SlowBackend(0.0), featurizer=workbench.featurizer, config=config)
    try:
        assert service.start() is service
        threads = list(service._replicas)
        assert service.start() is service  # a second start adds no threads
        assert service._replicas == threads
        assert sorted(set(_replica_threads()) - set(before)) == ["serving-replica-0", "serving-replica-1"]
        assert len(_replica_threads()) == len(before) + 2
        assert service.score(traffic[0], timeout=30.0).score == 0.0
    finally:
        service.close()
    assert _replica_threads() == before


def test_close_is_idempotent_and_a_noop_before_start(workbench, traffic):
    service = ScoringService(backend=_SlowBackend(0.0), featurizer=workbench.featurizer)
    service.close()  # never started: nothing to stop, and it can still start
    service.start()
    service.score(traffic[0], timeout=30.0)
    service.close()
    service.close()
    assert not any(t.is_alive() for t in service._replicas)
    with pytest.raises(RuntimeError, match="restarted"):
        service.start()


def test_context_manager_runs_replica_threads_only_inside_the_block(workbench, traffic):
    before = _replica_threads()
    config = ServingConfig(num_replicas=3, cache_enabled=False)
    with ScoringService(backend=_SlowBackend(0.0), featurizer=workbench.featurizer, config=config) as service:
        assert len(_replica_threads()) == len(before) + 3
        assert all(t.daemon and t.is_alive() for t in service._replicas)
    assert _replica_threads() == before
    assert not any(t.is_alive() for t in service._replicas)


def test_drain_on_an_idle_service_completes_at_once(workbench):
    with ScoringService(backend=_SlowBackend(0.0), featurizer=workbench.featurizer) as service:
        result = service.drain(timeout=0.0)
    assert result and result.pending == ()
    assert repr(result) == "DrainResult(completed=True)"


def test_close_completes_admitted_work_before_stopping(workbench, traffic):
    backend = _GatedBackend()
    config = ServingConfig(max_batch_size=2, num_replicas=1, cache_enabled=False)
    service = ScoringService(backend=backend, featurizer=workbench.featurizer, config=config).start()
    handles = [service.submit(c) for c in traffic[:5]]
    backend.wait_started(1)
    closer = threading.Thread(target=service.close, daemon=True)
    closer.start()
    closer.join(timeout=0.1)
    assert closer.is_alive(), "close() returned with admitted work still held"
    backend.gate.set()
    closer.join(timeout=60.0)
    assert not closer.is_alive()
    assert all(h.done for h in handles)
    assert [h.result(timeout=0.0).score for h in handles] == [0.0] * 5
    assert sum(backend.sizes) == 5 and max(backend.sizes) <= 2
    snap = service.snapshot()
    assert snap.submitted == snap.completed == 5


def test_result_timeout_raises_while_the_batch_is_held(workbench, traffic):
    backend = _GatedBackend()
    config = ServingConfig(num_replicas=1, cache_enabled=False)
    service = ScoringService(backend=backend, featurizer=workbench.featurizer, config=config).start()
    try:
        handle = service.submit(traffic[0])
        backend.wait_started(1)
        with pytest.raises(TimeoutError, match=handle.request.request_id):
            handle.result(timeout=0.05)
        assert not handle.done
        backend.gate.set()
        assert handle.result(timeout=60.0).score == 0.0
    finally:
        backend.gate.set()
        service.close()


# --------------------------------------------------------------------- #
# failing batches, the cache and the backend contract
# --------------------------------------------------------------------- #
class _ShortFirstBatchBackend:
    """Returns one score too few for its first batch, then behaves."""

    name = "short-first"

    def __init__(self) -> None:
        self.calls = 0

    def fingerprint(self) -> str:
        return "short-first"

    def score_batch(self, batch: dict) -> np.ndarray:
        self.calls += 1
        size = len(batch["ids"]) - (1 if self.calls == 1 else 0)
        return np.full(size, 5.0, dtype=np.float64)


def test_backend_score_count_mismatch_fails_its_callers(workbench, traffic):
    backend = _ShortFirstBatchBackend()
    config = ServingConfig(num_replicas=1, cache_enabled=True)
    with ScoringService(backend=backend, featurizer=workbench.featurizer, config=config) as service:
        with pytest.raises(RuntimeError, match="backend returned 0 scores for 1 requests"):
            service.score(traffic[0], timeout=30.0)
        # the failed score was never cached: the retry is scored afresh
        retry = service.score(traffic[0], timeout=30.0)
        assert not retry.cached and retry.score == 5.0
        assert service.score(traffic[0], timeout=30.0).cached
        snap = service.snapshot()
    assert backend.calls == 2
    assert len(service.cache) == 1
    assert snap.failed == 1 and snap.completed == 2
    assert snap.submitted == snap.completed + snap.failed


def test_disabled_cache_scores_every_repeat(workbench, traffic):
    backend = _ShortFirstBatchBackend()
    backend.calls = 1  # skip the short first batch
    config = ServingConfig(num_replicas=1, cache_enabled=False)
    with ScoringService(backend=backend, featurizer=workbench.featurizer, config=config) as service:
        responses = [service.score(traffic[0], timeout=30.0) for _ in range(3)]
        snap = service.snapshot()
    assert not any(r.cached for r in responses)
    assert backend.calls == 4
    assert len(service.cache) == 0
    assert snap.cache_hits == 0 and snap.completed == 3


@pytest.mark.parametrize("num_replicas", [1, 3])
def test_responses_report_their_replica_and_batch_size(workbench, traffic, num_replicas):
    backend = _SlowBackend(delay_s=0.005)
    config = ServingConfig(max_batch_size=3, num_replicas=num_replicas, cache_enabled=False)
    with ScoringService(backend=backend, featurizer=workbench.featurizer, config=config) as service:
        handles = [service.submit(c) for c in traffic]
        responses = [h.result(timeout=60.0) for h in handles]
    assert [r.request_id for r in responses] == [h.request.request_id for h in handles]
    assert all(0 <= r.replica < num_replicas for r in responses)
    assert all(1 <= r.batch_size <= 3 for r in responses)
    assert all(r.latency_s > 0 and not r.cached for r in responses)
    assert [(r.complex_id, r.pose_id) for r in responses] == [(c.complex_id, c.pose_id) for c in traffic]


def test_serving_batch_span_records_replica_and_batch_size(workbench, traffic):
    telemetry = Telemetry(enabled=True)
    config = ServingConfig(max_batch_size=4, num_replicas=2, cache_enabled=False)
    with activate(telemetry):
        with ScoringService(backend=_SlowBackend(0.0), featurizer=workbench.featurizer, config=config) as service:
            responses = [service.score(c, timeout=30.0) for c in traffic[:4]]
    spans = [r for r in telemetry.tracer.records() if r.name == "serving-batch"]
    assert len(spans) == 4
    assert all(s.thread_name.startswith("serving-replica-") for s in spans)
    assert all(s.counters["batch_size"] == 1.0 for s in spans)
    assert sorted(s.counters["replica"] for s in spans) == sorted(float(r.replica) for r in responses)


class _ScoreOnlyBackend(_SlowBackend):
    """A backend whose lifecycle-looking methods must never be called."""

    def start(self):
        raise AssertionError("the service must not start its backend")

    def close(self):
        raise AssertionError("the service must not close its backend")


def test_service_calls_only_score_batch_on_the_backend(workbench, traffic):
    config = ServingConfig(num_replicas=2, cache_enabled=False)
    with ScoringService(backend=_ScoreOnlyBackend(0.0), featurizer=workbench.featurizer, config=config) as service:
        assert [service.score(c, timeout=30.0).score for c in traffic[:3]] == [0.0] * 3


def test_registry_has_no_breaker_series(workbench, traffic):
    backend = _ShortFirstBatchBackend()
    config = ServingConfig(num_replicas=2)
    with ScoringService(backend=backend, featurizer=workbench.featurizer, config=config) as service:
        with pytest.raises(RuntimeError):
            service.score(traffic[0], timeout=30.0)
        service.score(traffic[1], timeout=30.0)
        snapshot = service.metrics.registry.snapshot()
    names = [name for section in snapshot.values() if isinstance(section, dict) for name in section]
    assert "serving.queue_wait_s" in names
    assert not [name for name in names if "breaker" in name]


# --------------------------------------------------------------------- #
# result cache and module backend edges
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("capacity", [0, -3])
def test_cache_rejects_nonpositive_capacity(capacity):
    with pytest.raises(ValueError, match="positive"):
        ResultCache(capacity=capacity)


def test_cache_put_refreshes_an_existing_key_without_eviction():
    cache = ResultCache(capacity=2)
    cache.put("a", 1.0)
    cache.put("b", 2.0)
    cache.put("a", 10.0)  # overwrite refreshes recency: order is now b, a
    assert len(cache) == 2
    cache.put("c", 3.0)  # evicts "b", the least recently used
    assert cache.get("b") is None
    assert cache.get("a") == 10.0
    stats = cache.stats()
    assert stats.evictions == 1 and stats.size == 2 and stats.capacity == 2


def test_cache_stats_of_an_unused_cache():
    stats = ResultCache(capacity=5).stats()
    assert (stats.hits, stats.misses, stats.evictions, stats.size, stats.capacity) == (0, 0, 0, 0, 5)
    assert stats.hit_rate == 0.0


def test_module_backend_fingerprint_is_the_model_fingerprint(workbench):
    backend = ModuleBackend(workbench.coherent_fusion)
    assert backend.name == type(workbench.coherent_fusion).__name__
    assert backend.fingerprint() == model_fingerprint(workbench.coherent_fusion)
    assert backend.fingerprint() is backend.fingerprint()  # computed once
    assert ModuleBackend(workbench.coherent_fusion, name="cf").name == "cf"


def test_module_backend_forward_fallback_matches_direct_forward(workbench, traffic):
    """A head without ``predict_batch`` is scored by its plain forward."""
    model = workbench.sgcnn
    assert getattr(model, "predict_batch", None) is None
    was_training = model.training
    try:
        backend = ModuleBackend(model)
        assert not model.training
        samples = [workbench.featurizer.featurize(c) for c in traffic[:4]]
        scores = backend.score_batch(collate_complexes(samples))
        assert scores.dtype == np.float64 and scores.shape == (4,)
        assert scores.tolist() == _direct_scores(model, samples, 4)
    finally:
        model.train(was_training)
