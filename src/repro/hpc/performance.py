"""Analytic performance model of the distributed Fusion scoring architecture.

This model encodes the timing structure reported in §4.2/§4.3 of the
paper (Table 7 and Figure 4):

* a fixed **startup** phase (~20 minutes: loading HPC modules, the
  Anaconda environment, initializing Horovod ranks, loading a model
  instance per GPU and pre-loading the first batches);
* an **evaluation** phase whose rate is limited by data loading /
  featurization rather than GPU compute (the paper observes
  under-utilized GPUs), scaling with the number of ranks and improving
  slightly with larger per-rank batch sizes;
* a short **file output** phase (~6.5 minutes for a 2-million-pose job)
  performed in parallel across ranks after an allgather.

The same constants reproduce the single-job and peak throughput rows of
Table 7, the strong-scaling curves of Figure 4 and the 2.7x / 403x
speedups over Vina and MM/GBSA quoted in §4.2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.docking.mmgbsa import MMGBSA_POSES_PER_SECOND_PER_NODE
from repro.docking.vina import VINA_POSES_PER_SECOND_PER_NODE


@dataclass(frozen=True)
class PerformanceEstimate:
    """Timing breakdown of one Fusion scoring job."""

    num_poses: int
    num_nodes: int
    batch_size_per_rank: int
    startup_minutes: float
    evaluation_minutes: float
    output_minutes: float

    @property
    def total_minutes(self) -> float:
        return self.startup_minutes + self.evaluation_minutes + self.output_minutes

    @property
    def poses_per_second(self) -> float:
        return self.num_poses / (self.total_minutes * 60.0)

    @property
    def poses_per_hour(self) -> float:
        return self.poses_per_second * 3600.0

    @property
    def compounds_per_hour(self) -> float:
        """Compounds per hour assuming 10 docked poses per compound (ConveyorLC default)."""
        return self.poses_per_hour / 10.0


@dataclass(frozen=True)
class ScorerCostModel:
    """Per-node throughput of the three scoring methods (poses per second)."""

    vina_poses_per_second_per_node: float = VINA_POSES_PER_SECOND_PER_NODE
    mmgbsa_poses_per_second_per_node: float = MMGBSA_POSES_PER_SECOND_PER_NODE


class FusionThroughputModel:
    """Performance model of a distributed Coherent Fusion scoring job.

    Parameters
    ----------
    startup_minutes:
        Fixed per-job startup cost.
    base_rate_per_rank:
        Asymptotic per-rank evaluation rate (poses/s) at large batch size;
        calibrated so a 4-node, 16-rank, 2-million-pose job evaluates in
        about 280 minutes.
    batch_half_size:
        Batch size at which per-batch overhead halves the rate (small,
        because batch size only changed run time by ~10 minutes).
    output_minutes_per_million_poses:
        Parallel HDF5 output cost per million poses.
    ranks_per_node:
        One rank per GPU, 4 GPUs per Lassen node.
    node_scaling_efficiency:
        Fraction of ideal speedup retained per node doubling beyond one
        node (inter-node communication and I/O contention).
    model_memory_gb / gpu_memory_gb / per_pose_memory_gb:
        GPU memory model limiting the feasible per-rank batch size (the
        1.5 GB Coherent Fusion model plus 56 poses fill a 16 GB V100).
    """

    def __init__(
        self,
        startup_minutes: float = 20.0,
        base_rate_per_rank: float = 8.92,
        batch_half_size: float = 0.55,
        output_minutes_per_million_poses: float = 3.25,
        ranks_per_node: int = 4,
        node_scaling_efficiency: float = 0.92,
        model_memory_gb: float = 1.5,
        gpu_memory_gb: float = 16.0,
        per_pose_memory_gb: float = 0.258,
    ) -> None:
        self.startup_minutes = float(startup_minutes)
        self.base_rate_per_rank = float(base_rate_per_rank)
        self.batch_half_size = float(batch_half_size)
        self.output_minutes_per_million_poses = float(output_minutes_per_million_poses)
        self.ranks_per_node = int(ranks_per_node)
        self.node_scaling_efficiency = float(node_scaling_efficiency)
        self.model_memory_gb = float(model_memory_gb)
        self.gpu_memory_gb = float(gpu_memory_gb)
        self.per_pose_memory_gb = float(per_pose_memory_gb)

    # ------------------------------------------------------------------ #
    def max_batch_size(self) -> int:
        """Largest per-rank batch fitting in GPU memory next to the model."""
        available = self.gpu_memory_gb - self.model_memory_gb
        if available <= 0:
            raise ValueError("model does not fit in GPU memory")
        return int(available // self.per_pose_memory_gb)

    def rank_rate(self, batch_size_per_rank: int) -> float:
        """Per-rank evaluation rate (poses/s) for a given batch size."""
        if batch_size_per_rank <= 0:
            raise ValueError("batch size must be positive")
        if batch_size_per_rank > self.max_batch_size():
            raise ValueError(
                f"batch size {batch_size_per_rank} exceeds GPU memory limit {self.max_batch_size()}"
            )
        b = float(batch_size_per_rank)
        return self.base_rate_per_rank * b / (b + self.batch_half_size)

    def _node_efficiency(self, num_nodes: int) -> float:
        """Parallel efficiency relative to perfect scaling across nodes."""
        import math

        if num_nodes <= 1:
            return 1.0
        doublings = math.log2(num_nodes)
        return self.node_scaling_efficiency**doublings

    # ------------------------------------------------------------------ #
    def estimate(
        self,
        num_poses: int = 2_000_000,
        num_nodes: int = 4,
        batch_size_per_rank: int = 56,
    ) -> PerformanceEstimate:
        """Timing breakdown of one scoring job."""
        if num_poses <= 0 or num_nodes <= 0:
            raise ValueError("num_poses and num_nodes must be positive")
        ranks = num_nodes * self.ranks_per_node
        rate = self.rank_rate(batch_size_per_rank) * ranks * self._node_efficiency(num_nodes)
        evaluation_minutes = num_poses / rate / 60.0
        output_minutes = self.output_minutes_per_million_poses * num_poses / 1e6
        return PerformanceEstimate(
            num_poses=int(num_poses),
            num_nodes=int(num_nodes),
            batch_size_per_rank=int(batch_size_per_rank),
            startup_minutes=self.startup_minutes,
            evaluation_minutes=evaluation_minutes,
            output_minutes=output_minutes,
        )

    def peak_estimate(
        self,
        parallel_jobs: int = 125,
        num_poses_per_job: int = 2_000_000,
        num_nodes_per_job: int = 4,
        batch_size_per_rank: int = 56,
    ) -> PerformanceEstimate:
        """Aggregate throughput when ``parallel_jobs`` jobs run simultaneously.

        Returned as a single :class:`PerformanceEstimate` covering the whole
        allotment (125 x 4 = 500 nodes at the paper's peak).
        """
        single = self.estimate(num_poses_per_job, num_nodes_per_job, batch_size_per_rank)
        return PerformanceEstimate(
            num_poses=single.num_poses * parallel_jobs,
            num_nodes=single.num_nodes * parallel_jobs,
            batch_size_per_rank=single.batch_size_per_rank,
            startup_minutes=single.startup_minutes,
            evaluation_minutes=single.evaluation_minutes,
            output_minutes=single.output_minutes,
        )

    # ------------------------------------------------------------------ #
    def speedup_vs_vina(self, num_nodes: int = 4, batch_size_per_rank: int = 56, cost_model: ScorerCostModel | None = None) -> float:
        """Per-node throughput advantage of Fusion scoring over Vina docking."""
        cost_model = cost_model or ScorerCostModel()
        estimate = self.estimate(num_nodes=num_nodes, batch_size_per_rank=batch_size_per_rank)
        fusion_rate_per_node = estimate.poses_per_second / num_nodes
        return fusion_rate_per_node / cost_model.vina_poses_per_second_per_node

    def speedup_vs_mmgbsa(self, num_nodes: int = 4, batch_size_per_rank: int = 56, cost_model: ScorerCostModel | None = None) -> float:
        """Per-node throughput advantage of Fusion scoring over MM/GBSA rescoring."""
        cost_model = cost_model or ScorerCostModel()
        estimate = self.estimate(num_nodes=num_nodes, batch_size_per_rank=batch_size_per_rank)
        fusion_rate_per_node = estimate.poses_per_second / num_nodes
        return fusion_rate_per_node / cost_model.mmgbsa_poses_per_second_per_node
