"""Stage graph and retry policy of the fault-tolerant campaign runtime.

The screening campaign is a linear-looking pipeline (library build, the
streamed prep/dock/rescore/score screen, cost function, assays), but
treating it as one monolithic pass means any fault restarts it from
scratch — the opposite of what a days-long Sierra-class campaign can
afford.  The runtime instead models the campaign as a graph of named
stages with explicit dependencies; every stage's output can be
checkpointed under a content key, and a resumed campaign restores
completed stages instead of re-executing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff schedule for fault-injected attempts."""

    max_retries: int = 3
    backoff_s: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")

    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait before re-running after a failed ``attempt``."""
        return self.backoff_s * self.backoff_factor ** max(attempt - 1, 0)


class StageFailure(RuntimeError):
    """A stage exhausted its retries (or raised) and the campaign stopped.

    Checkpoints of previously completed stages remain on disk, so a
    re-run resumes from the last completed stage.
    """

    def __init__(self, stage: str, cause: BaseException) -> None:
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class Stage:
    """One named, checkpointable unit of campaign work.

    Attributes
    ----------
    name:
        Unique stage name (used in checkpoint filenames and reports).
    provides:
        Names of the context artifacts this stage produces.  A stage's
        payload is exactly ``{name: value for name in provides}``, which
        is what gets pickled into its checkpoint.
    deps:
        Names of stages that must complete first.  Checkpoint keys chain
        through ``deps``, so invalidating a stage invalidates everything
        downstream of it.
    """

    name: str
    provides: tuple[str, ...]
    deps: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage name must be non-empty")
        if not self.provides:
            raise ValueError(f"stage '{self.name}' must provide at least one artifact")


class StageGraph:
    """An ordered collection of stages with validated dependencies.

    Stages must be declared after every stage they depend on (the
    campaign graph is built statically, so declaration order doubles as
    a topological order).
    """

    def __init__(self, stages: list[Stage]) -> None:
        seen: set[str] = set()
        for stage in stages:
            if stage.name in seen:
                raise ValueError(f"duplicate stage name '{stage.name}'")
            for dep in stage.deps:
                if dep not in seen:
                    raise ValueError(
                        f"stage '{stage.name}' depends on '{dep}', which is not declared before it"
                    )
            seen.add(stage.name)
        self._stages = list(stages)
        self._by_name = {stage.name: stage for stage in stages}

    def __iter__(self):
        return iter(self._stages)

    def __len__(self) -> int:
        return len(self._stages)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> list[str]:
        return [stage.name for stage in self._stages]

    def stage(self, name: str) -> Stage:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise KeyError(f"unknown stage '{name}'; stages: {self.names()}") from exc


@dataclass
class StageReport:
    """What happened to one stage during one :meth:`CampaignRuntime.run`.

    ``extra`` carries stage-specific observability payloads; every stage
    records its ``"phases"`` there, and the streamed screen adds its
    ``"stream"`` summary (shards executed/restored/failed, retries).
    """

    name: str
    key: str
    status: str  # "executed" | "restored"
    duration_s: float = 0.0
    attempts: int = 1
    retries: int = 0
    faults: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def executed(self) -> bool:
        return self.status == "executed"

    @property
    def restored(self) -> bool:
        return self.status == "restored"


@dataclass
class RuntimeReport:
    """Per-run record of stage execution, restores, retries and faults."""

    stages: list[StageReport] = field(default_factory=list)

    def stage(self, name: str) -> StageReport:
        for report in self.stages:
            if report.name == name:
                return report
        raise KeyError(f"no report for stage '{name}'")

    def executed_stages(self) -> list[str]:
        return [r.name for r in self.stages if r.executed]

    def restored_stages(self) -> list[str]:
        return [r.name for r in self.stages if r.restored]

    def total_retries(self) -> int:
        return sum(r.retries for r in self.stages)

    def as_dict(self) -> dict:
        return {
            "executed": self.executed_stages(),
            "restored": self.restored_stages(),
            "total_retries": self.total_retries(),
            "stages": [
                {
                    "name": r.name,
                    "status": r.status,
                    "duration_s": r.duration_s,
                    "attempts": r.attempts,
                    "retries": r.retries,
                    "faults": list(r.faults),
                    **({"extra": dict(r.extra)} if r.extra else {}),
                }
                for r in self.stages
            ],
        }
