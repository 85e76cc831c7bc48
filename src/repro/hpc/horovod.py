"""Horovod-style convenience wrapper over the local MPI communicator.

The paper builds each 4-node scoring job with Horovod (Sergeev & Del
Balso 2018), which provides rank/size discovery, parameter broadcast and
allgather on top of MPI.  ``HorovodContext`` offers that narrow API for
the in-process reproduction, including broadcasting model parameters from
rank 0 so every rank scores with identical weights.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.hpc.mpi import RankContext
from repro.nn.module import Module


class HorovodContext:
    """Per-rank Horovod-like facade.

    Parameters
    ----------
    rank_context:
        The underlying :class:`repro.hpc.mpi.RankContext` — or any
        object with the same collective surface (``rank``/``size``/
        ``allgather``/``bcast``/``barrier``/``allreduce_exact``), such
        as the star context :func:`repro.hpc.mpi.run_spmd_process` hands
        the ranks of the training process backend
        (``DistributedTrainerConfig(backend="process")``).
    gpus_per_node:
        Number of GPUs per node; used to derive the local rank -> GPU
        binding exactly as ``hvd.local_rank()`` would.
    """

    def __init__(self, rank_context: RankContext, gpus_per_node: int = 4) -> None:
        self._ctx = rank_context
        if gpus_per_node <= 0:
            raise ValueError("gpus_per_node must be positive")
        self.gpus_per_node = int(gpus_per_node)

    # -- discovery ------------------------------------------------------ #
    def rank(self) -> int:
        return self._ctx.rank

    def size(self) -> int:
        return self._ctx.size

    def local_rank(self) -> int:
        """Rank within the node (selects which of the node's GPUs this rank drives)."""
        return self._ctx.rank % self.gpus_per_node

    def node_index(self) -> int:
        """Index of the node this rank runs on."""
        return self._ctx.rank // self.gpus_per_node

    # -- collectives ----------------------------------------------------- #
    def allgather_object(self, value: Any, tag: str = "hvd-allgather") -> list[Any]:
        """Allgather arbitrary Python objects across ranks."""
        return self._ctx.allgather(value, tag=tag)

    def barrier(self) -> None:
        self._ctx.barrier()

    def broadcast_parameters(self, model: Module, root_rank: int = 0) -> None:
        """Broadcast model weights from ``root_rank`` to every rank.

        Mirrors ``hvd.broadcast_parameters(model.state_dict(), root_rank=0)``:
        after the call every rank's model holds identical weights.
        """
        state = model.state_dict() if self._ctx.rank == root_rank else None
        state = self._ctx.bcast(state, root=root_rank, tag="hvd-bcast-params")
        if self._ctx.rank != root_rank:
            model.load_state_dict(state)

    def allreduce_mean(self, value: float, tag: str = "hvd-allreduce") -> float:
        """Average a scalar across ranks (gradient-averaging analogue)."""
        gathered = self._ctx.allgather(float(value), tag=f"{tag}:sum")
        return float(sum(gathered)) / self._ctx.size

    def allreduce_exact(
        self, arrays: Sequence[np.ndarray], tag: str = "hvd-allreduce-exact"
    ) -> np.ndarray:
        """Exactly sum per-rank partial arrays across ranks.

        The vector all-reduce behind distributed gradient averaging:
        every rank contributes its list of per-chunk gradient partials
        and receives the correctly-rounded elementwise sum over all
        partials — bit-identical regardless of how chunks were assigned
        to ranks.  Division by the global batch count is the caller's
        job (it must happen exactly once, after the exact sum).
        """
        return self._ctx.allreduce_exact(arrays, tag=tag)
