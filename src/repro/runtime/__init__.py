"""Fault-tolerant campaign runtime: stage graph, checkpoints, resumption.

Decomposes the screening campaign into named, resumable stages with
content-keyed checkpoints persisted through the HDF5-like store.  The
prep → dock → MM/GBSA → fusion work runs as one streamed stage
(:mod:`repro.screening.stream`) that checkpoints and retries at shard
granularity under a :class:`RetryPolicy`.
"""

from repro.runtime.campaign import CAMPAIGN_STAGES, CampaignRuntime, RuntimeConfig
from repro.runtime.checkpoint import CheckpointStore, checkpoint_key
from repro.runtime.stages import (
    RetryPolicy,
    RuntimeReport,
    Stage,
    StageFailure,
    StageGraph,
    StageReport,
)

__all__ = [
    "CAMPAIGN_STAGES",
    "CampaignRuntime",
    "RuntimeConfig",
    "CheckpointStore",
    "checkpoint_key",
    "RetryPolicy",
    "Stage",
    "StageGraph",
    "StageFailure",
    "StageReport",
    "RuntimeReport",
]
