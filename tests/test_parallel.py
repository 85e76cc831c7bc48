"""The process pool behind the SPMD training ranks, and pickling.

Two legs are pinned here:

* the pool itself — one-time payload shipping, task dispatch, error
  propagation, idempotent shutdown, the typed error after ``close()``;
* spawn-safety of shippable state — ``StreamingHistogram`` and
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
    PoolClosedError,
    ProcessTaskPool,
    validate_backend,
)
from repro.telemetry import StreamingHistogram


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

    @pytest.mark.parametrize("backend", ["Thread", "PROCESS", ""])
    def test_backend_names_are_matched_exactly(self, backend):
        with pytest.raises(ValueError, match="unknown execution backend"):
            validate_backend(backend)


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

    def test_payload_type_names_the_shipped_class(self):
        with ProcessTaskPool(_EchoPayload("x"), max_workers=1) as pool:
            assert pool.payload_type == "_EchoPayload"
            assert pool.payload_nbytes == len(pickle.dumps(_EchoPayload("x")))

    def test_warm_without_wait_lets_tasks_queue_behind_it(self):
        with ProcessTaskPool(_EchoPayload("warm"), max_workers=1) as pool:
            warming = pool.warm()
            assert pool.run(3) == ("warm", 3)
            assert warming.result() is None


class TestPoolClosedError:
    def test_plain_pool_names_pool_and_payload(self):
        pool = ProcessTaskPool(_EchoPayload("x"), max_workers=1)
        pool.close()
        with pytest.raises(PoolClosedError, match="closed") as excinfo:
            pool.submit(1)
        message = str(excinfo.value)
        assert "ProcessTaskPool" in message
        assert "_EchoPayload" in message
        with pytest.raises(PoolClosedError):
            pool.run(1)

    def test_pool_closed_error_is_a_runtime_error_carrying_its_fields(self):
        error = PoolClosedError("ProcessTaskPool", "_EchoPayload")
        assert isinstance(error, RuntimeError)
        assert error.pool_name == "ProcessTaskPool"
        assert error.payload_type == "_EchoPayload"

    def test_pool_closed_error_pickles(self):
        error = PoolClosedError("ProcessTaskPool", "_EchoPayload")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, PoolClosedError)
        assert str(clone) == str(error)


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
