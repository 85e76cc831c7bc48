"""Per-site result of the Fusion-scored streamed screen.

The campaign's ``streamed_screen`` stage provides one ``JobResult`` per
binding site, and stage checkpoints pickle it under this import path
(``repro.screening.job.JobResult``), so the class stays here.  Pickles
written while the class still carried ``num_ranks``, ``failed``,
``failure_mode``, ``modelled`` or ``timings`` load unchanged: the extra
keys land in the instance ``__dict__`` and nothing reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hpc.h5store import H5Store


@dataclass
class JobResult:
    """Fusion predictions of one site, mirrored into an HDF5-like store."""

    job_name: str
    site_name: str
    predictions: dict[tuple[str, int], float]
    store: H5Store

    @property
    def num_poses(self) -> int:
        return len(self.predictions)
