"""Trial bookkeeping for the hyper-parameter optimization runners."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class TrialState(str, enum.Enum):
    """Lifecycle of an HPO trial."""

    PENDING = "pending"
    RUNNING = "running"
    PAUSED = "paused"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class Trial:
    """One member of the HPO population.

    Attributes
    ----------
    trial_id:
        Population index.
    config:
        Current hyper-parameter configuration (mutated by exploit/explore).
    state:
        Current lifecycle state.
    epoch:
        Number of epochs trained so far.
    score:
        Latest objective value (validation MSE; lower is better).
    best_score:
        Best objective seen so far.
    history:
        ``(epoch, score, config snapshot)`` records appended after every
        reported result — the "schedule of hyper-parameters" PB2 learns.
    lineage:
        Trial ids this trial exploited (cloned weights from), in order.
    """

    trial_id: int
    config: dict[str, Any]
    state: TrialState = TrialState.PENDING
    epoch: int = 0
    score: float = float("inf")
    best_score: float = float("inf")
    history: list[tuple[int, float, dict[str, Any]]] = field(default_factory=list)
    lineage: list[int] = field(default_factory=list)

    def report(self, epoch: int, score: float) -> None:
        """Record a result at ``epoch``."""
        self.epoch = int(epoch)
        self.score = float(score)
        if score < self.best_score:
            self.best_score = float(score)
        self.history.append((int(epoch), float(score), dict(self.config)))
