"""Hardening pass over repro.serving: batcher invariants and concurrency.

The micro-batcher sits between admission control and the replica pool,
so its invariants — never drop, never duplicate, never reorder across
flushes, never exceed ``max_batch_size`` — are what make the service's
"accepted work always completes exactly once" contract possible.  The
property-based tests drive it with randomized arrival/drain schedules;
the threaded tests hammer the batcher and the full ``ScoringService``
from many clients at once and check the metrics ledger closes
(``submitted == completed + failed``).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chem.complexes import ProteinLigandComplex
from repro.serving import MicroBatcher, Overloaded, ScoringService, ServingConfig


# --------------------------------------------------------------------- #
# property-based micro-batcher invariants
# --------------------------------------------------------------------- #
@given(
    num_items=st.integers(min_value=0, max_value=60),
    max_batch=st.integers(min_value=1, max_value=8),
    extra_capacity=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_batcher_never_drops_duplicates_or_reorders(num_items, max_batch, extra_capacity):
    """Any arrival/drain schedule yields exactly the enqueued sequence."""
    batcher = MicroBatcher(max_batch_size=max_batch, capacity=max_batch + extra_capacity)
    enqueued: list = []
    drained: list = []
    for index in range(num_items):
        item = ("req", index)
        if not batcher.put(item):
            # a refusal may only happen at capacity: that is the
            # admission-control contract the service relies on
            assert batcher.pending() == batcher.capacity
            batch = batcher.next_batch()
            assert 1 <= len(batch.items) <= max_batch
            drained.extend(batch.items)
            assert batcher.put(item)
        enqueued.append(item)
    batcher.close()
    while (batch := batcher.next_batch()) is not None:
        assert len(batch.items) <= max_batch
        drained.extend(batch.items)
    assert drained == enqueued  # no drops, no duplicates, order across flushes


@given(
    prefill=st.integers(min_value=1, max_value=16),
    max_batch=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=40, deadline=None)
def test_batcher_size_trigger_never_exceeds_max_batch_size(prefill, max_batch):
    """However many items wait, a batch never exceeds ``max_batch_size``."""
    batcher = MicroBatcher(max_batch_size=max_batch, capacity=32)
    for index in range(prefill):
        assert batcher.put(index)
    batch = batcher.next_batch()
    assert len(batch.items) == min(prefill, max_batch)
    assert list(batch.items) == list(range(len(batch.items)))


def test_batcher_threaded_producers_preserve_per_producer_order():
    """Concurrent producers: the drain interleaves, but each producer's
    items come out exactly once and in their submission order."""
    num_producers, per_producer = 4, 120
    batcher = MicroBatcher(max_batch_size=5, capacity=16)

    def produce(producer_id: int) -> None:
        for index in range(per_producer):
            while not batcher.put((producer_id, index)):
                time.sleep(0.0002)  # backpressure: retry until space frees

    threads = [threading.Thread(target=produce, args=(p,)) for p in range(num_producers)]
    for thread in threads:
        thread.start()
    consumed: list[tuple[int, int]] = []
    total = num_producers * per_producer
    while len(consumed) < total:
        batch = batcher.next_batch()
        assert len(batch.items) <= 5
        consumed.extend(batch.items)
    for thread in threads:
        thread.join()
    batcher.close()
    assert batcher.next_batch() is None
    assert len(consumed) == total
    for producer_id in range(num_producers):
        mine = [index for pid, index in consumed if pid == producer_id]
        assert mine == list(range(per_producer))


# --------------------------------------------------------------------- #
# ScoringService under concurrent hammering
# --------------------------------------------------------------------- #
class _CountingBackend:
    """Fast deterministic backend; optionally fails every ``fail_every``-th batch."""

    name = "counting-stub"

    def __init__(self, delay_s: float = 0.002, fail_every: int = 0) -> None:
        self.delay_s = delay_s
        self.fail_every = fail_every
        self.batches = 0
        self._lock = threading.Lock()

    def fingerprint(self) -> str:
        return f"counting-stub-{self.fail_every}"

    def score_batch(self, batch: dict) -> np.ndarray:
        with self._lock:
            self.batches += 1
            batch_index = self.batches
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.fail_every and batch_index % self.fail_every == 0:
            raise RuntimeError(f"injected backend failure on batch {batch_index}")
        # deterministic per-request scores so cache hits are checkable
        return np.array([float(len(str(i))) for i in batch["ids"]], dtype=np.float64)


@pytest.fixture(scope="module")
def stress_traffic(campaign):
    site_name = campaign.database.sites()[0]
    site = campaign.sites[site_name]
    records = [r for r in campaign.database.records() if r.site_name == site_name][:6]
    assert records
    return [
        ProteinLigandComplex(site, r.pose, complex_id=r.compound_id, pose_id=r.pose_id)
        for r in records
    ]


def test_concurrent_stress_metrics_ledger_closes(workbench, stress_traffic):
    """Many clients, small queue: every request is either rejected at
    admission or completes; submitted == completed + failed exactly."""
    config = ServingConfig(max_batch_size=2, num_replicas=2, queue_capacity=4, cache_enabled=True)
    service = ScoringService(
        backend=_CountingBackend(delay_s=0.002), featurizer=workbench.featurizer, config=config
    ).start()
    accepted = []
    rejections = 0
    scores: dict[str, set[float]] = {}
    lock = threading.Lock()

    def client(worker: int) -> None:
        nonlocal rejections
        for round_ in range(25):
            complex_ = stress_traffic[(worker + round_) % len(stress_traffic)]
            try:
                handle = service.submit(complex_)
            except Overloaded:
                with lock:
                    rejections += 1
                time.sleep(0.001)
                continue
            response = handle.result(timeout=60.0)
            with lock:
                accepted.append(response)
                scores.setdefault(f"{response.complex_id}/{response.pose_id}", set()).add(response.score)

    workers = [threading.Thread(target=client, args=(w,)) for w in range(8)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    assert service.drain(timeout=60.0)
    snap = service.snapshot()
    service.close()

    assert snap.rejected == rejections
    assert snap.submitted == len(accepted)
    # the admission ledger closes: nothing admitted is ever lost
    assert snap.submitted == snap.completed + snap.failed
    assert snap.failed == 0
    assert snap.cache_hits + snap.cache_misses == snap.submitted
    assert snap.cache_hits > 0  # six unique poses hammered 200 times must hit
    # identical content key -> identical score, cached or not
    assert all(len(values) == 1 for values in scores.values())


class _ExplodingFeaturizer:
    """Delegating featurizer that fails for one marked complex id."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def featurize(self, complex_):
        if complex_.complex_id == "boom":
            raise ValueError("malformed molecule")
        return self.inner.featurize(complex_)


def test_featurization_failure_keeps_metrics_ledger_closed(workbench, stress_traffic):
    """A request whose featurization raises is counted as failed, so
    submitted == completed + failed even on the admission error path."""
    good = stress_traffic[0]
    bad = ProteinLigandComplex(good.site, good.ligand, complex_id="boom", pose_id=99)
    config = ServingConfig(max_batch_size=2, num_replicas=1, queue_capacity=8, cache_enabled=False)
    with ScoringService(
        backend=_CountingBackend(delay_s=0.0),
        featurizer=_ExplodingFeaturizer(workbench.featurizer),
        config=config,
    ) as service:
        with pytest.raises(ValueError, match="malformed molecule"):
            service.submit(bad)
        service.submit(good).result(timeout=30.0)
        assert service.drain(timeout=30.0)
        snap = service.snapshot()
    assert snap.failed == 1 and snap.completed == 1
    assert snap.submitted == snap.completed + snap.failed


def test_concurrent_stress_with_failing_batches(workbench, stress_traffic):
    """Backend failures propagate to exactly the affected callers and are
    counted in ``failed``; the ledger still closes."""
    config = ServingConfig(max_batch_size=2, num_replicas=2, queue_capacity=16, cache_enabled=False)
    service = ScoringService(
        backend=_CountingBackend(delay_s=0.001, fail_every=3),
        featurizer=workbench.featurizer,
        config=config,
    ).start()
    outcomes = {"ok": 0, "failed": 0, "rejected": 0}
    lock = threading.Lock()

    def client(worker: int) -> None:
        for round_ in range(20):
            complex_ = stress_traffic[(worker + round_) % len(stress_traffic)]
            try:
                handle = service.submit(complex_)
            except Overloaded:
                with lock:
                    outcomes["rejected"] += 1
                continue
            try:
                handle.result(timeout=60.0)
                with lock:
                    outcomes["ok"] += 1
            except RuntimeError as error:
                assert "injected backend failure" in str(error)
                with lock:
                    outcomes["failed"] += 1

    workers = [threading.Thread(target=client, args=(w,)) for w in range(6)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    assert service.drain(timeout=60.0)
    snap = service.snapshot()
    service.close()

    assert outcomes["failed"] > 0
    assert snap.failed == outcomes["failed"]
    assert snap.completed == outcomes["ok"]
    assert snap.rejected == outcomes["rejected"]
    assert snap.submitted == snap.completed + snap.failed


@pytest.mark.parametrize("num_replicas", [1, 2])
@pytest.mark.parametrize("fail_every", [0, 1], ids=["healthy", "all-batches-fail"])
def test_no_serving_thread_outlives_close(workbench, stress_traffic, num_replicas, fail_every):
    """No ``serving-dispatcher`` or ``serving-replica-*`` thread this
    service started is alive after ``close()``, whether its batches
    succeed or all fail."""

    def live_serving_threads():
        return {
            t for t in threading.enumerate()
            if t.name == "serving-dispatcher" or t.name.startswith("serving-replica-")
        }

    before = live_serving_threads()
    config = ServingConfig(max_batch_size=2, num_replicas=num_replicas, queue_capacity=16, cache_enabled=False)
    service = ScoringService(
        backend=_CountingBackend(delay_s=0.001, fail_every=fail_every),
        featurizer=workbench.featurizer,
        config=config,
    ).start()
    handles = [service.submit(c) for c in stress_traffic]
    for handle in handles:
        if fail_every:
            with pytest.raises(RuntimeError, match="injected backend failure"):
                handle.result(timeout=60.0)
        else:
            handle.result(timeout=60.0)
    service.close()
    snap = service.snapshot()
    assert snap.submitted == snap.completed + snap.failed == len(stress_traffic)
    assert snap.failed == (len(stress_traffic) if fail_every else 0)
    assert sorted(t.name for t in live_serving_threads() - before) == []


# --------------------------------------------------------------------- #
# chaos: circuit breakers and drain diagnostics
# --------------------------------------------------------------------- #
class _HealingFlakyBackend:
    """Thread backend whose first ``heal_after_calls`` batches fail.

    Models a wedged replica that recovers on its own: with 3 failing
    calls and a breaker threshold of 2, the first half-open probe still
    fails, so the breaker must *reopen* before the replica recovers.
    """

    name = "flaky-healing"

    def __init__(self, heal_after_calls: int) -> None:
        self.heal_after_calls = heal_after_calls
        self.calls = 0
        self._lock = threading.Lock()

    def fingerprint(self) -> str:
        return "flaky-healing"

    def score_batch(self, batch: dict) -> np.ndarray:
        with self._lock:
            self.calls += 1
            if self.calls <= self.heal_after_calls:
                raise RuntimeError("replica wedged")
        return np.zeros(len(batch["ids"]), dtype=np.float64)


def test_breaker_opens_and_reopens_on_failed_probe(workbench, stress_traffic):
    """Consecutive batch failures open the replica's breaker; the first
    half-open probe still fails, so the breaker reopens before the
    replica heals — and the metrics ledger closes across the whole
    episode."""
    from repro.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    # calls #1-#2 open the breaker, #3 is the failed probe that reopens
    # it, #4 is the probe that closes it
    backend = _HealingFlakyBackend(heal_after_calls=3)
    config = ServingConfig(
        max_batch_size=4, num_replicas=1, queue_capacity=16, cache_enabled=False,
        breaker_threshold=2, breaker_reset_s=0.05,
    )
    service = ScoringService(
        backend=backend, featurizer=workbench.featurizer, config=config, registry=registry
    ).start()
    failures = 0
    successes = 0
    try:
        deadline = time.perf_counter() + 60.0
        while successes < 3 and time.perf_counter() < deadline:
            try:
                service.submit(stress_traffic[successes % len(stress_traffic)]).result(timeout=60.0)
                successes += 1
            except RuntimeError as error:
                assert "replica wedged" in str(error)
                failures += 1
                time.sleep(0.06)  # let the open breaker reach its probe window
        assert service.drain(timeout=60.0)
        snap = service.snapshot()
    finally:
        service.close()
    assert successes >= 3
    assert failures >= 3  # threshold failures to open, plus the failed probe
    assert backend.calls >= backend.heal_after_calls + successes
    counters = registry.snapshot()["counters"]
    assert counters.get("supervision.breaker_opened", 0) >= 2
    assert snap.submitted == snap.completed + snap.failed
    assert snap.failed == failures


def test_drain_timeout_names_pending_request_ids(workbench, stress_traffic):
    """A timed-out drain returns a falsy DrainResult naming exactly the
    admitted-but-incomplete request ids, then drains clean once the
    stalled batch is released."""
    release = threading.Event()

    class _StalledBackend:
        name = "stalled"

        def fingerprint(self):
            return "stalled"

        def score_batch(self, batch):
            release.wait(timeout=60.0)
            return np.zeros(len(batch["ids"]), dtype=np.float64)

    config = ServingConfig(max_batch_size=8, num_replicas=1, queue_capacity=8, cache_enabled=False)
    service = ScoringService(
        backend=_StalledBackend(), featurizer=workbench.featurizer, config=config
    ).start()
    try:
        handles = [service.submit(c) for c in stress_traffic[:2]]
        expected_ids = {h.request.request_id for h in handles}
        stuck = service.drain(timeout=0.1)
        assert not stuck
        assert set(stuck.pending) == expected_ids
        assert "pending" in repr(stuck)
        release.set()
        drained = service.drain(timeout=60.0)
        assert drained and drained.pending == ()
        for handle in handles:
            handle.result(timeout=60.0)
    finally:
        release.set()
        service.close()


def test_replica_pool_routes_around_open_breaker():
    """With one replica's breaker open, dispatch prefers the healthy
    replica; when every breaker is open, the soonest-to-probe replica is
    chosen instead of failing the request."""
    from repro.serving import ReplicaPool

    class _StubBackend:
        def __init__(self, tag):
            self.name = tag

        def fingerprint(self):
            return self.name

        def score_batch(self, batch):  # pragma: no cover - never dispatched
            return np.zeros(0)

    pool = ReplicaPool(
        [_StubBackend("a"), _StubBackend("b")],
        breaker_threshold=1,
        breaker_reset_s=30.0,
    )
    assert pool.breaker_states() == ["closed", "closed"]
    pool.record_result(0, ok=False)  # threshold 1: opens immediately
    assert pool.breaker_states()[0] == "open"
    assert [pool._pick().index for _ in range(4)] == [1, 1, 1, 1]
    pool.record_result(1, ok=False)
    assert pool.breaker_states() == ["open", "open"]
    # all open: fall back to whichever replica can probe soonest
    assert pool._pick().index in (0, 1)
    pool.record_result(0, ok=True)
    assert pool.breaker_states()[0] == "closed"
    assert pool._pick().index == 0


def test_replica_pool_never_calls_backend_lifecycle_hooks():
    """The pool owns only its worker threads: a backend's own ``start`` /
    ``close`` methods are left alone through start, an opened breaker
    and close."""
    from repro.serving import ReplicaPool

    class _HookedBackend:
        name = "hooked"

        def __init__(self):
            self.hook_calls = []

        def fingerprint(self):
            return "hooked"

        def start(self):  # pragma: no cover - must never run
            self.hook_calls.append("start")

        def close(self):  # pragma: no cover - must never run
            self.hook_calls.append("close")

        def score_batch(self, batch):  # pragma: no cover - never dispatched
            return np.zeros(0)

    backends = [_HookedBackend(), _HookedBackend()]
    pool = ReplicaPool(backends, breaker_threshold=1, breaker_reset_s=30.0)
    pool.start()
    done = threading.Event()
    pool.submit(lambda index, backend: done.set())
    assert done.wait(timeout=10.0)
    pool.record_result(0, ok=False)  # threshold 1: opens immediately
    assert pool.breaker_states()[0] == "open"
    pool.close()
    assert [backend.hook_calls for backend in backends] == [[], []]


def test_replica_pool_validates_construction():
    from repro.serving import ReplicaPool

    with pytest.raises(ValueError, match="at least one backend"):
        ReplicaPool([])
    with pytest.raises(ValueError, match="breaker_threshold must be >= 0, got -1"):
        ReplicaPool([object()], breaker_threshold=-1)
