"""Featurized samples and their collation into model-ready batches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.nn.graph_layers import FlatGraphBatch, GraphBatch
from repro.nn.tensor import no_grad


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


class BatchScoringMixin:
    """Batched inference entry point shared by every model of the zoo.

    ``predict_batch`` is what fusion scoring (the streamed screen's shard
    workers and the serving backend) calls: it accepts either an
    already-collated batch dict or a sequence of
    :class:`FeaturizedComplex` samples straight from the featurization
    engine, runs one inference-mode forward pass and returns plain
    float64 scores.  A model in training mode is switched to eval for
    the pass and back afterwards; models are kept in eval mode between
    fits, so concurrent scoring threads never flip a shared model.
    """

    def predict_batch(self, batch: dict | Sequence[FeaturizedComplex]) -> np.ndarray:
        """Score one feature batch; returns a ``(N,)`` float64 array."""
        if not isinstance(batch, dict):
            batch = collate_complexes(list(batch))
        was_training = self.training
        if was_training:
            self.eval()
        try:
            with no_grad():
                out = self(batch)
            return np.asarray(out.numpy(), dtype=np.float64).reshape(-1)
        finally:
            if was_training:
                self.train()


def predict_samples(model, samples: Sequence[FeaturizedComplex], batch_size: int, graph_layout: str = "dense") -> np.ndarray:
    """Score a sample list in ``batch_size`` batches, in order, through ``model.predict_batch``.

    The one inference loop over sample lists: validation in both
    trainers (``graph_layout="flat"`` in the data-parallel one), the
    workbench's predictions and the rotation probe all call it.  Each
    batch runs in eval mode under ``no_grad``; the model's mode and
    weights are left as they were.
    """
    outputs = [
        model.predict_batch(collate_complexes(samples[start : start + batch_size], graph_layout=graph_layout))
        for start in range(0, len(samples), batch_size)
    ]
    return np.concatenate(outputs) if outputs else np.array([])
