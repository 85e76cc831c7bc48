"""High-throughput distributed Fusion screening pipeline."""

from repro.screening.partition import shard_bounds
from repro.screening.job import JobResult
from repro.screening.output import write_job_output, write_topk
from repro.screening.costfunction import CompoundCostFunction, CompoundScore
from repro.screening.throughput import figure4_series, table7_rows
from repro.screening.pipeline import CampaignConfig, CampaignResult, ScreeningCampaign

#: Lazily re-exported from :mod:`repro.screening.stream` (PEP 562).  The
#: stream module imports ``repro.runtime`` (checkpoints, retry policy)
#: while ``repro.runtime.campaign`` imports ``repro.screening.pipeline`` —
#: an eager import here would make ``import repro.runtime`` fail as a
#: first import with a partially-initialized-module error.
_STREAM_EXPORTS = frozenset(
    {
        "ShardOutcome",
        "StreamConfig",
        "StreamingScreen",
        "StreamingScreenResult",
        "StreamingStats",
        "StreamShardError",
        "TopKEntry",
        "TopKSelector",
    }
)


def __getattr__(name: str):
    if name in _STREAM_EXPORTS:
        from repro.screening import stream

        return getattr(stream, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "shard_bounds",
    "JobResult",
    "write_job_output",
    "CompoundCostFunction",
    "CompoundScore",
    "table7_rows",
    "figure4_series",
    "CampaignConfig",
    "CampaignResult",
    "ScreeningCampaign",
    "ShardOutcome",
    "StreamConfig",
    "StreamingScreen",
    "StreamingScreenResult",
    "StreamingStats",
    "StreamShardError",
    "TopKEntry",
    "TopKSelector",
    "write_topk",
]
