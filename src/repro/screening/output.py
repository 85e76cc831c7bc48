"""Job output format mirroring ConveyorLC's CDT3Docking layout.

The streamed screen's results are written per binding site as parallel
arrays of compound identifiers, pose ids and predicted binding
affinities — the same information ConveyorLC emits, so the downstream
selection tooling can consume physics and ML scores uniformly.
"""

from __future__ import annotations

import numpy as np

from repro.hpc.h5store import H5Store


def write_job_output(
    store: H5Store,
    site_name: str,
    compound_ids: list[str],
    pose_ids: list[int],
    predictions: np.ndarray,
    job_name: str = "job0",
) -> None:
    """Write one job's predictions for one site into ``store``."""
    if not (len(compound_ids) == len(pose_ids) == len(predictions)):
        raise ValueError("compound_ids, pose_ids and predictions must be aligned")
    prefix = f"dock/{site_name}/{job_name}"
    store.write(f"{prefix}/compound_ids", np.array(compound_ids, dtype="U"))
    store.write(f"{prefix}/pose_ids", np.array(pose_ids, dtype=np.int64))
    store.write(f"{prefix}/fusion_pk", np.asarray(predictions, dtype=np.float64))


def write_topk(
    store: H5Store,
    site_name: str,
    compound_ids: list[str],
    scores: np.ndarray,
    stats: dict[str, float] | None = None,
) -> None:
    """Write one site's streaming top-K table (rank order) plus summary stats.

    The streaming engine's end-of-run artifact: parallel ``compound_ids``
    / ``score`` arrays already in ranking order, with the exact
    streaming statistics (count/min/max/mean/std) as attributes — the
    bounded-memory counterpart of the full per-pose prediction layout
    written by :func:`write_job_output`.
    """
    if len(compound_ids) != len(scores):
        raise ValueError("compound_ids and scores must be aligned")
    prefix = f"topk/{site_name}"
    store.write(f"{prefix}/compound_ids", np.array(compound_ids, dtype="U"))
    store.write(f"{prefix}/score", np.asarray(scores, dtype=np.float64))
    for key, value in (stats or {}).items():
        store.write_attr(prefix, key, float(value))
