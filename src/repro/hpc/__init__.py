"""Simulated HPC substrate: cluster, scheduler, MPI, faults, performance, storage.

The paper's screening ran on LLNL's Lassen (792 nodes x 4 V100 GPUs under
the IBM Spectrum LSF scheduler) using Horovod/MPI for intra-job
communication and HDF5 for results.  None of that hardware is available
offline, so this sub-package provides:

* :mod:`repro.hpc.cluster` — a simulated cluster with Lassen-like node
  specifications and allocation tracking;
* :mod:`repro.hpc.scheduler` — an LSF-like batch scheduler with queueing,
  wall-time limits, job failure and requeue semantics driven by a virtual
  wall clock;
* :mod:`repro.hpc.mpi` / :mod:`repro.hpc.horovod` — an in-process MPI
  communicator (bcast, allgather and an exact all-reduce over thread ranks)
  and the thin Horovod-style wrapper the distributed trainer uses;
* :mod:`repro.hpc.faults` — fault injection reproducing the paper's
  job-failure statistics (≈2 % at 1-2 nodes, ≈3 % at 4, ≈20 % at 8);
* :mod:`repro.hpc.performance` — the analytic performance model behind
  Table 7 and Figure 4 (startup / evaluation / output phases, batch-size
  and node-count scaling, Vina and MM/GBSA speed ratios);
* :mod:`repro.hpc.h5store` — an HDF5-like hierarchical array store used
  for job outputs.
"""

from repro.hpc.cluster import GPUSpec, NodeAllocation, NodeSpec, SimulatedCluster, LASSEN_NODE
from repro.hpc.scheduler import Job, JobScheduler, JobState, SchedulerConfig
from repro.hpc.mpi import CollectiveError, LocalCommunicator, RankContext, run_spmd
from repro.hpc.horovod import HorovodContext
from repro.hpc.faults import FaultEvent, FaultInjector
from repro.hpc.performance import FusionThroughputModel, PerformanceEstimate, ScorerCostModel
from repro.hpc.h5store import H5Store

__all__ = [
    "GPUSpec",
    "NodeSpec",
    "NodeAllocation",
    "SimulatedCluster",
    "LASSEN_NODE",
    "Job",
    "JobState",
    "JobScheduler",
    "SchedulerConfig",
    "CollectiveError",
    "LocalCommunicator",
    "RankContext",
    "run_spmd",
    "HorovodContext",
    "FaultInjector",
    "FaultEvent",
    "FusionThroughputModel",
    "ScorerCostModel",
    "PerformanceEstimate",
    "H5Store",
]
