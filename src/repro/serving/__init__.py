"""Online scoring service: micro-batching, sharded replicas, result cache.

Complements the offline ``repro.screening`` batch jobs with a
request/response path: callers submit posed complexes and receive pK
predictions, with demand-driven micro-batching, a pool of model replicas,
content-addressed result caching, explicit backpressure and latency /
throughput metrics.
"""

from repro.serving.batcher import MicroBatch, MicroBatcher, QueueClosed
from repro.serving.cache import CacheStats, H5CacheAdapter, ResultCache
from repro.serving.metrics import MetricsSnapshot, ServingMetrics
from repro.serving.requests import (
    ScoreRequest,
    ScoreResponse,
    content_key,
    model_fingerprint,
    molecule_digest,
    site_digest,
)
from repro.serving.service import DrainResult, Overloaded, PendingScore, ScoringService, ServingConfig
from repro.serving.breaker import CircuitBreaker
from repro.serving.workers import ModuleBackend, ReplicaPool, ScoringBackend

__all__ = [
    "MicroBatch",
    "MicroBatcher",
    "QueueClosed",
    "CacheStats",
    "H5CacheAdapter",
    "ResultCache",
    "MetricsSnapshot",
    "ServingMetrics",
    "ScoreRequest",
    "ScoreResponse",
    "content_key",
    "model_fingerprint",
    "molecule_digest",
    "site_digest",
    "DrainResult",
    "Overloaded",
    "PendingScore",
    "ScoringService",
    "ServingConfig",
    "CircuitBreaker",
    "ModuleBackend",
    "ReplicaPool",
    "ScoringBackend",
]
