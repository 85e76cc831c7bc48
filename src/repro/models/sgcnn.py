"""Spatial graph convolutional network (the graph head of Fusion).

Structurally unaltered from the FAST SG-CNN (the PotentialNet
architecture built on gated graph sequence networks), as stated in
§3.3.1: a covalent-only propagation stage, a covalent+non-covalent
propagation stage, gated graph gather pooling over ligand atoms after
each stage, and a dense head whose layer widths derive from the
non-covalent gather width (reduced by 1.5x and then 2x).  The latent
vector used by the fusion layers is the activation of Layer N-3 (the
first dense layer).
"""

from __future__ import annotations

import numpy as np

from repro.featurize.pipeline import BatchScoringMixin
from repro.models.config import SGCNNConfig
from repro.nn.graph_layers import GatedGraphConv, GraphBatch, GraphGather
from repro.nn.layers import Linear, make_activation
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import spawn_rng


class SGCNN(BatchScoringMixin, Module):
    """Spatial-graph CNN predicting absolute binding affinity (pK)."""

    def __init__(self, config: SGCNNConfig | None = None, seed: int = 0) -> None:
        super().__init__()
        self.config = config or SGCNNConfig()
        cfg = self.config
        rng = spawn_rng(seed, "sgcnn")

        self.covalent_conv = GatedGraphConv(
            cfg.hidden_dim, cfg.covalent_k, edge_types=("covalent",), rng=rng
        )
        self.noncovalent_conv = GatedGraphConv(
            cfg.hidden_dim, cfg.noncovalent_k, edge_types=("covalent", "noncovalent"), rng=rng
        )
        self.covalent_gather = GraphGather(
            cfg.hidden_dim, cfg.node_feature_dim, cfg.covalent_gather_width, rng=rng
        )
        self.noncovalent_gather = GraphGather(
            cfg.hidden_dim, cfg.node_feature_dim, cfg.noncovalent_gather_width, rng=rng
        )
        self.activation = make_activation(cfg.activation)

        gather_total = cfg.covalent_gather_width + cfg.noncovalent_gather_width
        dense1 = max(int(round(cfg.noncovalent_gather_width / 1.5)), 4)
        dense2 = max(dense1 // 2, 2)
        self.fc1 = Linear(gather_total, dense1, rng=rng)
        self.fc2 = Linear(dense1, dense2, rng=rng)
        self.fc_out = Linear(dense2, 1, rng=rng)
        self._latent_dim = dense1
        self.register_buffer("out_mean", np.zeros(1))
        self.register_buffer("out_std", np.ones(1))

    # ------------------------------------------------------------------ #
    @property
    def latent_dim(self) -> int:
        """Width of the latent vector exposed to the fusion layers (Layer N-3)."""
        return self._latent_dim

    def _gather_features(self, batch: GraphBatch) -> Tensor:
        h0 = Tensor(batch.node_features)
        h_cov = self.covalent_conv(h0, {"covalent": batch.adjacency["covalent"]})
        g_cov = self.covalent_gather(h_cov, batch)
        h_all = self.noncovalent_conv(h_cov, batch.adjacency)
        g_noncov = self.noncovalent_gather(h_all, batch)
        return Tensor.cat([g_cov, g_noncov], axis=1)

    def latent(self, batch: dict | GraphBatch) -> Tensor:
        """Latent feature vector (first dense activation), shape ``(N, latent_dim)``."""
        graph = batch["graph"] if isinstance(batch, dict) else batch
        gathered = self._gather_features(graph)
        return self.activation(self.fc1(gathered))

    def calibrate_output(self, mean: float, std: float) -> None:
        """Set the output affine calibration from the training-label statistics."""
        self.out_mean[...] = float(mean)
        self.out_std[...] = max(float(std), 1e-6)

    def forward(self, batch: dict | GraphBatch) -> Tensor:
        """Predict pK for a batch (uses the ``"graph"`` entry), shape ``(N,)``."""
        latent = self.latent(batch)
        x = self.activation(self.fc2(latent))
        out = self.fc_out(x)
        out = out * float(self.out_std[0]) + float(self.out_mean[0])
        return out.reshape(out.shape[0])
