"""Online scoring service: micro-batching, replica threads, result cache.

Complements the offline ``repro.screening`` batch jobs with a
request/response path: callers submit posed complexes and receive pK
predictions, with demand-driven micro-batching, model replica threads,
content-addressed result caching, explicit backpressure and latency /
throughput metrics.
"""

from repro.serving.batcher import MicroBatch, MicroBatcher, QueueClosed
from repro.serving.cache import CacheStats, ResultCache
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
from repro.serving.workers import ModuleBackend, ScoringBackend

__all__ = [
    "MicroBatch",
    "MicroBatcher",
    "QueueClosed",
    "CacheStats",
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
    "ModuleBackend",
    "ScoringBackend",
]
