"""Distributed Fusion scoring job (Figure 3 of the paper).

A job receives a set of docked poses for one binding site, divides them
per node and per rank, and each rank runs parallel data loaders that
featurize poses and feed batches to its model instance.  When evaluation
finishes, identifiers and predictions are combined with ``allgather`` and
written in parallel to the HDF5-like store.  The in-process execution
uses the same code structure (Horovod context over a local MPI
communicator, per-rank data loaders, allgather, partitioned output) at a
vastly smaller scale; the analytic performance model provides the
paper-scale timing (Table 7, Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.chem.complexes import ProteinLigandComplex
from repro.chem.protein import BindingSite
from repro.docking.conveyorlc import DockingRecord
from repro.featurize.engine import FeaturePipeline
from repro.featurize.pipeline import collate_complexes
from repro.hpc.h5store import H5Store
from repro.hpc.horovod import HorovodContext
from repro.hpc.mpi import RankContext, run_spmd
from repro.hpc.performance import FusionThroughputModel, PerformanceEstimate
from repro.nn.dataloader import DataLoader, InMemoryDataset
from repro.nn.module import Module
from repro.nn.tensor import no_grad
from repro.screening.output import write_job_output
from repro.screening.partition import partition_evenly
from repro.utils.timer import Timer


@dataclass
class JobResult:
    """Output of one Fusion scoring job."""

    job_name: str
    site_name: str
    predictions: dict[tuple[str, int], float]
    store: H5Store
    timings: dict[str, float]
    num_ranks: int
    failed: bool = False
    failure_mode: str = ""
    modelled: PerformanceEstimate | None = None

    @property
    def num_poses(self) -> int:
        return len(self.predictions)


@dataclass
class FusionScoringJob:
    """Score docked poses of one binding site with a Fusion model.

    Parameters
    ----------
    model:
        A trained model with ``forward(batch) -> Tensor``; evaluated in
        inference mode on every rank.
    featurizer:
        Complex featurizer shared by the per-rank data loaders.
    site:
        The binding site the poses belong to.
    records:
        Docked poses to score (``DockingRecord`` objects; their
        ``fusion_pk`` fields are filled in place).
    num_nodes / gpus_per_node:
        Job geometry; ranks = nodes x GPUs (4-node, 16-rank jobs in the
        paper).
    batch_size_per_rank:
        Poses loaded per batch on each rank (up to 56 on a 16 GB V100).
    num_data_workers:
        Pre-fetch workers per rank (12 in the production configuration).
    job_name:
        Name used in the output layout and the scheduler.
    barrier_timeout:
        Seconds a rank waits at a collective before failing the job —
        short in tests, raised for long campaign-scale jobs.
    """

    model: Module
    featurizer: FeaturePipeline
    site: BindingSite
    records: Sequence[DockingRecord]
    num_nodes: int = 4
    gpus_per_node: int = 4
    batch_size_per_rank: int = 8
    num_data_workers: int = 0
    job_name: str = "fusion-job-0"
    barrier_timeout: float = 120.0
    throughput_model: FusionThroughputModel = field(default_factory=FusionThroughputModel)

    def __post_init__(self) -> None:
        if self.num_nodes <= 0 or self.gpus_per_node <= 0:
            raise ValueError("num_nodes and gpus_per_node must be positive")
        if self.batch_size_per_rank <= 0:
            raise ValueError("batch_size_per_rank must be positive")

    # ------------------------------------------------------------------ #
    @property
    def num_ranks(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def modelled_estimate(self, num_poses: int | None = None) -> PerformanceEstimate:
        """Paper-scale timing of this job geometry from the analytic model."""
        poses = len(self.records) if num_poses is None else int(num_poses)
        return self.throughput_model.estimate(
            num_poses=max(poses, 1),
            num_nodes=self.num_nodes,
            batch_size_per_rank=min(self.batch_size_per_rank, self.throughput_model.max_batch_size()),
        )

    # ------------------------------------------------------------------ #
    def run(self) -> JobResult:
        """Execute the job in-process across simulated MPI ranks.

        Each rank runs on its own thread and the ranks combine their
        predictions through an MPI-style ``allgather``.
        """
        timer = Timer()
        records = list(self.records)
        store = H5Store()

        with timer.section("startup"):
            # rank partitioning and model replication (broadcast) happen here
            per_rank = partition_evenly(records, self.num_ranks)
            self.model.eval()

        def rank_program(ctx: RankContext):
            hvd = HorovodContext(ctx, gpus_per_node=self.gpus_per_node)
            hvd.broadcast_parameters(self.model, root_rank=0)
            my_records = per_rank[hvd.rank()]
            ids: list[str] = []
            pose_ids: list[int] = []
            predictions: list[float] = []
            if my_records:
                # featurize the rank's slice through the featurizer's batch
                # entry point, which computes every pose fresh (no cache)
                samples = self.featurizer.featurize_many(
                    [
                        ProteinLigandComplex(
                            site=self.site,
                            ligand=record.pose,
                            complex_id=record.compound_id,
                            pose_id=record.pose_id,
                        )
                        for record in my_records
                    ]
                )
                loader = DataLoader(
                    InMemoryDataset(samples),
                    batch_size=self.batch_size_per_rank,
                    shuffle=False,
                    num_workers=self.num_data_workers,
                    collate_fn=collate_complexes,
                )
                predict = getattr(self.model, "predict_batch", None)
                with no_grad():
                    for batch in loader:
                        if predict is not None:
                            outputs = predict(batch)
                        else:
                            outputs = self.model(batch).numpy()
                        ids.extend(batch["ids"])
                        pose_ids.extend(int(p) for p in batch["pose_ids"])
                        predictions.extend(float(v) for v in outputs)
            # gather identifiers and predictions across ranks (Figure 3)
            gathered = hvd.allgather_object((ids, pose_ids, predictions), tag="job-results")
            return gathered if hvd.rank() == 0 else None

        with timer.section("evaluation"):
            results = run_spmd(rank_program, self.num_ranks, barrier_timeout=self.barrier_timeout)

        gathered = results[0]
        all_ids: list[str] = []
        all_pose_ids: list[int] = []
        all_predictions: list[float] = []
        for ids, pose_ids, predictions in gathered:
            all_ids.extend(ids)
            all_pose_ids.extend(pose_ids)
            all_predictions.extend(predictions)

        with timer.section("output"):
            # each rank writes its own slice in the real system; the slices are
            # recombined here into one store per job
            rank_slices = partition_evenly(list(zip(all_ids, all_pose_ids, all_predictions)), self.num_ranks)
            for rank, chunk in enumerate(rank_slices):
                if not chunk:
                    continue
                ids, pose_ids, predictions = zip(*chunk)
                write_job_output(
                    store,
                    self.site.name,
                    list(ids),
                    list(pose_ids),
                    np.array(predictions),
                    job_name=f"{self.job_name}/rank{rank}",
                    timings=timer.as_dict(),
                )

        predictions_map = {
            (cid, pid): pred for cid, pid, pred in zip(all_ids, all_pose_ids, all_predictions)
        }
        # annotate the docking records in place so downstream selection sees the ML score
        for record in records:
            key = (record.compound_id, record.pose_id)
            if key in predictions_map:
                record.fusion_pk = predictions_map[key]

        return JobResult(
            job_name=self.job_name,
            site_name=self.site.name,
            predictions=predictions_map,
            store=store,
            timings=timer.as_dict(),
            num_ranks=self.num_ranks,
            modelled=self.modelled_estimate(),
        )
