"""Simulated compute cluster with Lassen-like node specifications."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class GPUSpec:
    """A GPU model description."""

    name: str = "V100"
    memory_gb: float = 16.0


@dataclass(frozen=True)
class NodeSpec:
    """Per-node hardware description."""

    cpu_cores: int = 44
    cpu_frequency_ghz: float = 3.45
    gpus_per_node: int = 4
    gpu: GPUSpec = field(default_factory=GPUSpec)
    memory_gb: float = 256.0


#: The Lassen node description from §3.2 of the paper.
LASSEN_NODE = NodeSpec()


@dataclass
class NodeAllocation:
    """A set of node indices granted to one job."""

    job_name: str
    node_ids: tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)


class SimulatedCluster:
    """Tracks node allocation on a simulated cluster.

    Parameters
    ----------
    num_nodes:
        Cluster size (Lassen has 792 GPU nodes; tests use much smaller
        clusters).
    node_spec:
        Per-node hardware description.
    """

    def __init__(self, num_nodes: int = 792, node_spec: NodeSpec = LASSEN_NODE) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = int(num_nodes)
        self.node_spec = node_spec
        self._free: set[int] = set(range(self.num_nodes))
        self._allocations: dict[str, NodeAllocation] = {}

    # ------------------------------------------------------------------ #
    @property
    def free_nodes(self) -> int:
        return len(self._free)

    # ------------------------------------------------------------------ #
    def can_allocate(self, num_nodes: int) -> bool:
        return 0 < num_nodes <= self.free_nodes

    def allocate(self, job_name: str, num_nodes: int) -> NodeAllocation:
        """Grant ``num_nodes`` free nodes to ``job_name``."""
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if job_name in self._allocations:
            raise ValueError(f"job '{job_name}' already holds an allocation")
        if num_nodes > self.free_nodes:
            raise RuntimeError(
                f"cannot allocate {num_nodes} nodes; only {self.free_nodes} free"
            )
        chosen = tuple(sorted(self._free)[:num_nodes])
        self._free.difference_update(chosen)
        allocation = NodeAllocation(job_name=job_name, node_ids=chosen)
        self._allocations[job_name] = allocation
        return allocation

    def release(self, job_name: str) -> None:
        """Return a job's nodes to the free pool (idempotent)."""
        allocation = self._allocations.pop(job_name, None)
        if allocation is not None:
            self._free.update(allocation.node_ids)
