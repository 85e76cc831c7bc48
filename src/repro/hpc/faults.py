"""Fault injection reproducing the failure statistics of §4.3.

The paper reports job failure rates of roughly 2 % for 1- and 2-node
jobs, 3 % for 4-node jobs and 20 % for 8-node jobs (the Horovod/PyTorch
combination on POWER9 became unstable as rank counts grew), with error
classes including bad metadata in the docking data, node failures and
broken-pipe communication errors. The screening architecture was shaped
by these failures: many small fault-tolerant jobs instead of a few large
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import derive_seed

#: Paper-reported failure probability as a function of nodes per job.
DEFAULT_FAILURE_RATES: dict[int, float] = {1: 0.02, 2: 0.02, 4: 0.03, 8: 0.20}

#: Failure classes and their relative frequencies (qualitative, from §4.2).
FAILURE_MODES: dict[str, float] = {
    "bad_metadata": 0.35,
    "broken_pipe": 0.30,
    "node_failure": 0.20,
    "communication_timeout": 0.15,
}


@dataclass(frozen=True)
class FaultEvent:
    """A fault injected into one job execution."""

    job_name: str
    mode: str
    at_fraction: float  # fraction of the job's runtime at which the fault strikes

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mode} in {self.job_name} at {self.at_fraction:.0%} of runtime"


class FaultInjector:
    """Deterministic, seeded fault injection for simulated jobs."""

    def __init__(
        self,
        failure_rates: dict[int, float] | None = None,
        seed: int = 0,
        enabled: bool = True,
    ) -> None:
        self.failure_rates = dict(DEFAULT_FAILURE_RATES if failure_rates is None else failure_rates)
        for nodes, rate in self.failure_rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"failure rate for {nodes} nodes must be in [0, 1]")
        self.seed = int(seed)
        self.enabled = bool(enabled)
        self.injected: list[FaultEvent] = []

    @classmethod
    def uniform(cls, rate: float, seed: int = 0, enabled: bool = True) -> "FaultInjector":
        """Injector with the same failure probability at every node count.

        Useful for the runtime's fault-path tests and fault-rate sweeps,
        where the paper's node-count-dependent rates are not the point.
        """
        return cls(failure_rates={1: rate}, seed=seed, enabled=enabled)

    # ------------------------------------------------------------------ #
    def failure_probability(self, num_nodes: int) -> float:
        """Failure probability for a job of ``num_nodes`` (interpolated between known points)."""
        if num_nodes in self.failure_rates:
            return self.failure_rates[num_nodes]
        known = sorted(self.failure_rates.items())
        if num_nodes <= known[0][0]:
            return known[0][1]
        if num_nodes >= known[-1][0]:
            return known[-1][1]
        for (n0, p0), (n1, p1) in zip(known[:-1], known[1:]):
            if n0 <= num_nodes <= n1:
                weight = (num_nodes - n0) / (n1 - n0)
                return p0 + weight * (p1 - p0)
        return known[-1][1]

    def check(self, job_name: str, num_nodes: int, attempt: int = 0) -> FaultEvent | None:
        """Decide whether this job attempt fails; returns the fault or ``None``.

        The decision is deterministic in (seed, job name, attempt) so that
        a requeued job sees a fresh, but reproducible, draw.
        """
        if not self.enabled:
            return None
        rng = np.random.default_rng(derive_seed(self.seed, "fault", job_name, attempt))
        if rng.random() >= self.failure_probability(num_nodes):
            return None
        modes = list(FAILURE_MODES)
        weights = np.array([FAILURE_MODES[m] for m in modes])
        mode = str(rng.choice(modes, p=weights / weights.sum()))
        event = FaultEvent(job_name=job_name, mode=mode, at_fraction=float(rng.uniform(0.05, 0.95)))
        self.injected.append(event)
        return event
