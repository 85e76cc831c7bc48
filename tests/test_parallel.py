"""Process-backend primitives: ProcessTaskPool, metric merging, pickling.

The process backend's correctness story has three legs, each pinned
here:

* the pool itself — one-time payload shipping, task dispatch, error
  propagation, idempotent shutdown;
* the telemetry bridge — worker registries export mergeable state the
  coordinator absorbs exactly (counter adds, exact histogram merges);
* spawn-safety of the shipped state — ``StreamingHistogram`` and
  ``FeatureCache`` pickle by design (locks recreated, cache entries
  deliberately left behind).
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.featurize.cache import FeatureCache
from repro.parallel import (
    PARALLEL_BACKENDS,
    ProcessTaskPool,
    isolated_registry,
    validate_backend,
)
from repro.telemetry import MetricsRegistry, StreamingHistogram
from repro.telemetry import current as current_telemetry


# --------------------------------------------------------------------------- #
# spawn-safe payloads (module-level: workers import this module by name)
# --------------------------------------------------------------------------- #
class _EchoPayload:
    """Returns (shipped state, task) so tests can see both sides."""

    def __init__(self, tag: str) -> None:
        self.tag = tag

    def run_task(self, task):
        return (self.tag, task)


class _FailingPayload:
    def run_task(self, task):
        raise ValueError(f"task {task!r} rejected on purpose")


class _Unpicklable:
    def __init__(self) -> None:
        self.lock = threading.Lock()

    def run_task(self, task):  # pragma: no cover - never ships
        return task


# --------------------------------------------------------------------------- #
# backend validation
# --------------------------------------------------------------------------- #
class TestValidateBackend:
    def test_accepts_every_registered_backend(self):
        for backend in PARALLEL_BACKENDS:
            assert validate_backend(backend) == backend

    def test_rejects_unknown_backend_naming_the_choices(self):
        with pytest.raises(ValueError, match="'fork'.*thread.*process"):
            validate_backend("fork")


# --------------------------------------------------------------------------- #
# the pool
# --------------------------------------------------------------------------- #
class TestProcessTaskPool:
    def test_tasks_run_against_the_shipped_payload(self):
        with ProcessTaskPool(_EchoPayload("shipped-once"), max_workers=2) as pool:
            assert pool.payload_nbytes > 0
            futures = [pool.submit(i) for i in range(6)]
            results = [f.result() for f in futures]
        assert results == [("shipped-once", i) for i in range(6)]

    def test_worker_exception_propagates_to_the_caller(self):
        with ProcessTaskPool(_FailingPayload(), max_workers=1) as pool:
            with pytest.raises(ValueError, match="rejected on purpose"):
                pool.run("bad-task")
            # the pool survives a failed task
            pool.warm(wait=True)

    def test_unpicklable_payload_fails_fast_in_the_parent(self):
        with pytest.raises(TypeError):
            ProcessTaskPool(_Unpicklable(), max_workers=1)

    def test_close_is_idempotent_and_rejects_further_submits(self):
        pool = ProcessTaskPool(_EchoPayload("x"), max_workers=1)
        assert pool.run("one") == ("x", "one")
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit("two")

    def test_invalid_max_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            ProcessTaskPool(_EchoPayload("x"), max_workers=0)


# --------------------------------------------------------------------------- #
# telemetry bridge: export_mergeable / absorb / isolated_registry
# --------------------------------------------------------------------------- #
class TestMetricMerging:
    def test_counters_add_and_gauges_accumulate(self):
        worker = MetricsRegistry()
        worker.counter("work.items").inc(7)
        worker.gauge("work.seconds").add(1.5)
        coordinator = MetricsRegistry()
        coordinator.counter("work.items").inc(3)
        coordinator.absorb(worker.export_mergeable())
        coordinator.absorb(worker.export_mergeable())
        assert coordinator.counter("work.items").value == 3 + 7 + 7
        assert coordinator.gauge("work.seconds").value == pytest.approx(3.0)

    def test_zero_valued_metrics_do_not_materialize_handles(self):
        worker = MetricsRegistry()
        worker.counter("touched.never")
        coordinator = MetricsRegistry()
        coordinator.absorb(worker.export_mergeable())
        assert coordinator.snapshot()["counters"] == {}

    def test_histograms_absorb_bit_exactly_through_pickle(self):
        """The full worker->coordinator round trip: observe in a worker
        registry, pickle the export (as the process boundary does), absorb
        into a fresh registry — bucket counts and quantiles identical to
        observing directly."""
        values = np.abs(np.random.default_rng(5).normal(0.2, 2.0, size=300)) + 1e-6
        worker = MetricsRegistry()
        worker.histogram("shard.seconds", min_value=1e-6, max_value=1e3).observe_many(values)
        direct = StreamingHistogram(min_value=1e-6, max_value=1e3)
        direct.observe_many(values)

        exported = pickle.loads(pickle.dumps(worker.export_mergeable()))
        coordinator = MetricsRegistry()
        coordinator.absorb(exported)
        merged = coordinator.histogram("shard.seconds")
        assert merged.count == direct.count
        assert np.array_equal(merged.bucket_counts(), direct.bucket_counts())
        assert merged.summary() == direct.summary()

    def test_isolated_registry_does_not_leak_into_the_active_bundle(self):
        outer = current_telemetry().registry
        before = outer.counter("parallel.test.leak").value
        with isolated_registry() as registry:
            current_telemetry().registry.counter("parallel.test.leak").inc(5)
            assert registry.counter("parallel.test.leak").value == 5
        assert outer.counter("parallel.test.leak").value == before
        assert current_telemetry().registry is outer


# --------------------------------------------------------------------------- #
# spawn-safety of shipped state
# --------------------------------------------------------------------------- #
class TestPickleContracts:
    def test_streaming_histogram_pickle_round_trip(self):
        histogram = StreamingHistogram(min_value=1e-3, max_value=1e2, growth=1.1)
        histogram.observe_many([0.01, 0.5, 3.0, 80.0])
        clone = pickle.loads(pickle.dumps(histogram))
        assert clone.count == histogram.count
        assert np.array_equal(clone.bucket_counts(), histogram.bucket_counts())
        assert clone.summary() == histogram.summary()
        # the recreated lock is live: the clone keeps observing
        clone.observe(1.0)
        assert clone.count == histogram.count + 1

    def test_feature_cache_ships_configuration_only(self):
        cache = FeatureCache(capacity=3, max_bytes=10**6)
        cache.put("key", np.zeros((2, 2)), {"node_features": np.ones(4)})
        assert cache.get("key") is not None
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.capacity == 3
        assert clone.max_bytes == 10**6
        # entries and the hit/miss ledger stay behind: each worker warms
        # its own cache against its own traffic
        assert len(clone) == 0
        assert clone.stats().lookups == 0
        clone.put("other", np.zeros(2), {"node_features": np.zeros(1)})
        assert "other" in clone
