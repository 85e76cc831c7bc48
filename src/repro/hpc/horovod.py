"""Horovod-style convenience wrapper over the local MPI communicator.

The paper builds its data-parallel jobs with Horovod (Sergeev & Del
Balso 2018).  ``HorovodContext`` offers the two collectives the
distributed trainer needs: broadcasting model parameters from one rank,
so every rank starts from identical weights, and the exact all-reduce
of gradient partials.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.hpc.mpi import RankContext
from repro.nn.module import Module


class HorovodContext:
    """Per-rank Horovod-like facade.

    Parameters
    ----------
    rank_context:
        The underlying :class:`repro.hpc.mpi.RankContext` — or any
        object with the same collective surface (``rank``/``bcast``/
        ``allreduce_exact``).
    """

    def __init__(self, rank_context: RankContext) -> None:
        self._ctx = rank_context

    def broadcast_parameters(self, model: Module, root_rank: int = 0) -> None:
        """Broadcast model weights from ``root_rank`` to every rank.

        Mirrors ``hvd.broadcast_parameters(model.state_dict(), root_rank=0)``:
        after the call every rank's model holds identical weights.
        """
        state = model.state_dict() if self._ctx.rank == root_rank else None
        state = self._ctx.bcast(state, root=root_rank, tag="hvd-bcast-params")
        if self._ctx.rank != root_rank:
            model.load_state_dict(state)

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
