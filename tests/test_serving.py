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
    H5CacheAdapter,
    MicroBatcher,
    Overloaded,
    ResultCache,
    ScoringService,
    ServingConfig,
    content_key,
    model_fingerprint,
)
from repro.serving.requests import ScoreRequest


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


def test_cache_h5store_roundtrip(tmp_path):
    cache = ResultCache(capacity=8)
    for index in range(5):
        cache.put(f"key{index}", float(index))
    adapter = H5CacheAdapter()
    store = adapter.save(cache)
    path = tmp_path / "cache.npz"
    store.save(path)

    from repro.hpc.h5store import H5Store

    warmed = ResultCache(capacity=8)
    loaded = H5CacheAdapter(H5Store.load(path)).load(warmed)
    assert loaded == 5
    assert warmed.items() == cache.items()


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
    batcher = MicroBatcher(max_batch_size=4, max_wait_s=5.0, capacity=16)
    for item in range(4):
        assert batcher.put(item)
    batch = batcher.next_batch()  # size trigger: returns without waiting 5 s
    assert list(batch.items) == [0, 1, 2, 3]


def test_batcher_flushes_partial_batch_after_max_wait():
    batcher = MicroBatcher(max_batch_size=64, max_wait_s=0.05, capacity=64)
    batcher.put("only")
    start = time.perf_counter()
    batch = batcher.next_batch()
    waited = time.perf_counter() - start
    assert list(batch.items) == ["only"]
    assert batch.oldest_wait_s >= 0.05
    assert waited < 2.0  # deadline-triggered, not size-triggered


def test_batcher_close_drains_then_returns_none():
    batcher = MicroBatcher(max_batch_size=4, max_wait_s=10.0, capacity=16)
    batcher.put("x")
    batcher.close()
    batch = batcher.next_batch()  # close releases the under-full batch
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
    config = ServingConfig(
        max_batch_size=1, max_wait_s=0.0, num_replicas=1, queue_capacity=2, cache_enabled=False
    )
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
def test_service_scores_bit_identical_to_direct_forward(workbench, traffic):
    batch_size = 4
    config = ServingConfig(max_batch_size=batch_size, num_replicas=2, queue_capacity=64)
    with ScoringService(
        model=workbench.coherent_fusion, featurizer=workbench.featurizer, config=config
    ) as service:
        responses = service.score_many(traffic)
        online = [service.submit(ScoreRequest(complex_=c, key=f"nocache-{i}")).result(timeout=60.0)
                  for i, c in enumerate(traffic)]

    samples = [workbench.featurizer.featurize(c) for c in traffic]
    direct: list[float] = []
    for begin in range(0, len(samples), batch_size):
        batch = collate_complexes(samples[begin : begin + batch_size])
        with no_grad():
            direct.extend(float(v) for v in workbench.coherent_fusion(batch).numpy())

    # the bulk path partitions into the same deterministic chunks as the
    # direct loop above, so the scores are bit-identical
    assert [r.score for r in responses] == direct
    # the online path coalesces on arrival timing, so batch boundaries (and
    # therefore the graph segment-sum orderings) may differ by the last ulp
    np.testing.assert_allclose([r.score for r in online], direct, rtol=1e-12, atol=1e-12)


def test_warm_cache_repeat_hit_rate(workbench, traffic):
    config = ServingConfig(max_batch_size=4, num_replicas=2, queue_capacity=64)
    with ScoringService(
        model=workbench.coherent_fusion, featurizer=workbench.featurizer, config=config
    ) as service:
        cold = service.score_many(traffic)
        assert not any(r.cached for r in cold)
        service.metrics.reset()
        warm = [service.submit(c).result(timeout=60.0) for c in traffic]
        snap = service.snapshot()
    assert all(r.cached for r in warm)
    assert snap.cache_hit_rate >= 0.99
    assert [r.score for r in warm] == [r.score for r in cold]


def test_service_drain_and_metrics(workbench, traffic):
    config = ServingConfig(max_batch_size=4, max_wait_s=0.01, num_replicas=2, queue_capacity=64)
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


def test_campaign_routed_through_serving_matches_direct_scoring(workbench):
    from repro.screening.costfunction import CompoundCostFunction
    from repro.screening.pipeline import CampaignConfig, ScreeningCampaign

    library_counts = {"emolecules": 6}
    base = dict(
        library_counts=library_counts, poses_per_compound=2,
        compounds_tested_per_site=4, seed=7,
    )
    direct_campaign = ScreeningCampaign(
        model=workbench.coherent_fusion,
        featurizer=workbench.featurizer,
        config=CampaignConfig(**base),
        cost_function=CompoundCostFunction(),
        interaction_model=workbench.interaction_model,
    ).run()
    serving_campaign = ScreeningCampaign(
        model=workbench.coherent_fusion,
        featurizer=workbench.featurizer,
        config=CampaignConfig(**base, use_serving=True,
                              serving=ServingConfig(max_batch_size=8, num_replicas=2)),
        cost_function=CompoundCostFunction(),
        interaction_model=workbench.interaction_model,
    ).run()

    direct_predictions: dict = {}
    for result in direct_campaign.job_results:
        for (cid, pid), score in result.predictions.items():
            direct_predictions[(result.site_name, cid, pid)] = score
    serving_predictions: dict = {}
    for result in serving_campaign.job_results:
        for (cid, pid), score in result.predictions.items():
            serving_predictions[(result.site_name, cid, pid)] = score

    assert serving_predictions.keys() == direct_predictions.keys()
    for key, score in serving_predictions.items():
        # shard workers and the service batch differently, so agreement
        # is up to floating-point associativity, not bitwise
        assert score == pytest.approx(direct_predictions[key], rel=1e-9, abs=1e-9), key
    # downstream selection is therefore identical as well
    assert {s: [c.compound_id for c in v] for s, v in serving_campaign.selections.items()} == {
        s: [c.compound_id for c in v] for s, v in direct_campaign.selections.items()
    }


# --------------------------------------------------------------------- #
# replica-pool lifecycle and the process scoring backend
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


class TestProcessModelBackend:
    def test_scores_and_fingerprint_match_module_backend(self, workbench, traffic):
        from repro.serving import ModuleBackend, ProcessModelBackend

        samples = [workbench.featurizer.featurize(c) for c in traffic[:4]]
        batch = collate_complexes(samples)
        reference = ModuleBackend(workbench.coherent_fusion)
        backend = ProcessModelBackend(workbench.coherent_fusion)
        try:
            assert backend.fingerprint() == reference.fingerprint()
            scores = backend.score_batch(batch)
            # close + rescore: the next call spawns a fresh worker process
            backend.close()
            again = backend.score_batch(batch)
        finally:
            backend.close()
        direct = reference.score_batch(batch)
        assert np.array_equal(scores, direct)
        assert np.array_equal(again, direct)

    def test_service_process_backend_bit_identical_to_thread(self, workbench, traffic):
        kwargs = dict(max_batch_size=4, num_replicas=2, queue_capacity=64)
        with ScoringService(
            model=workbench.coherent_fusion, featurizer=workbench.featurizer,
            config=ServingConfig(**kwargs),
        ) as service:
            by_thread = [r.score for r in service.score_many(traffic)]
        with ScoringService(
            model=workbench.coherent_fusion, featurizer=workbench.featurizer,
            config=ServingConfig(backend="process", **kwargs),
        ) as service:
            by_process = [r.score for r in service.score_many(traffic)]
            snapshot = service.snapshot()
        # the bulk path partitions deterministically, so the process
        # replicas see the exact batches the thread replicas saw
        assert by_process == by_thread
        assert snapshot.completed == snapshot.submitted
        assert snapshot.failed == 0

    def test_process_backend_requires_a_model(self, workbench):
        with pytest.raises(ValueError, match="requires model="):
            ScoringService(
                backend=_CountingBackend(), featurizer=workbench.featurizer,
                config=ServingConfig(backend="process"),
            )
