"""Featurized samples and their collation into model-ready batches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.nn.graph_layers import FlatGraphBatch, GraphBatch


@dataclass
class FeaturizedComplex:
    """A single featurized sample.

    Attributes
    ----------
    voxel:
        ``(C, D, D, D)`` voxel tensor for the 3D-CNN head.
    graph:
        Graph dictionary for the SG-CNN head.
    target:
        Training label (experimental pK); ``nan`` for unlabeled screening
        poses.
    complex_id / pose_id:
        Identifiers carried through the scoring pipeline output.
    """

    voxel: np.ndarray
    graph: dict
    target: float
    complex_id: str
    pose_id: int = 0
    metadata: dict = field(default_factory=dict)




def collate_complexes(samples: Sequence[FeaturizedComplex], graph_layout: str = "dense") -> dict:
    """Collate featurized samples into a model-ready batch.

    Returns a dict with keys ``voxel`` (``(N, C, D, D, D)`` array),
    ``graph`` (:class:`GraphBatch`, or :class:`FlatGraphBatch` when
    ``graph_layout="flat"``), ``target`` (``(N,)`` array), and ``ids`` /
    ``pose_ids`` lists.  The flat layout keeps adjacency as edge lists —
    O(edges) message passing instead of O(total^2) — and is what the
    vectorized trainer collates with; predictions agree with the dense
    layout to solver precision but are not bit-identical to it.
    """
    if not samples:
        raise ValueError("cannot collate an empty batch")
    if graph_layout not in ("dense", "flat"):
        raise ValueError(f"unknown graph_layout '{graph_layout}'; expected 'dense' or 'flat'")
    batch_cls = FlatGraphBatch if graph_layout == "flat" else GraphBatch
    voxels = np.stack([s.voxel for s in samples], axis=0)
    graphs = batch_cls.from_graphs([s.graph for s in samples])
    targets = np.array([s.target for s in samples], dtype=np.float64)
    return {
        "voxel": voxels,
        "graph": graphs,
        "target": targets,
        "ids": [s.complex_id for s in samples],
        "pose_ids": [s.pose_id for s in samples],
    }
