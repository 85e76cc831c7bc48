"""Fusion models: Late, Mid-level and Coherent Fusion.

* **Late Fusion** averages the pK predictions of the independently
  trained 3D-CNN and SG-CNN.
* **Mid-level Fusion** extracts latent vectors from both (frozen) heads,
  optionally passes each through model-specific dense layers, concatenates
  everything and applies a stack of fusion dense layers with early/mid/late
  dropout and optional residual connections.
* **Coherent Fusion** (the paper's contribution) uses the same fusion
  architecture but backpropagates gradients coherently through both heads,
  optionally after loading the individually pre-trained head weights.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.featurize.pipeline import FeaturizedComplex, collate_complexes
from repro.models.cnn3d import CNN3D
from repro.models.config import CoherentFusionConfig, FusionConfig, MidFusionConfig
from repro.models.sgcnn import SGCNN
from repro.nn.layers import BatchNorm1d, Dropout, Linear, make_activation
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import spawn_rng


class BatchScoringMixin:
    """Batched inference entry point shared by the fusion models.

    ``predict_batch`` is what fusion scoring (the streamed screen's shard
    workers and the serving backend) calls: it accepts either an
    already-collated batch dict or a sequence of
    :class:`~repro.featurize.pipeline.FeaturizedComplex` samples straight
    from the featurization engine, runs one inference-mode forward pass
    and returns plain float64 scores.  The ops are exactly the scoring
    loops' historical ``no_grad`` forward, so routing through this entry
    point is bit-neutral.
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


class LateFusion(BatchScoringMixin, Module):
    """Unweighted mean of the 3D-CNN and SG-CNN predictions (Equation 1 labels)."""

    def __init__(self, cnn3d: CNN3D, sgcnn: SGCNN) -> None:
        super().__init__()
        self.cnn3d = cnn3d
        self.sgcnn = sgcnn

    def forward(self, batch: dict) -> Tensor:
        """Average the two heads' pK predictions."""
        return (self.cnn3d(batch) + self.sgcnn(batch)) * 0.5


class FusionNetwork(BatchScoringMixin, Module):
    """Shared implementation of Mid-level and Coherent Fusion.

    Parameters
    ----------
    cnn3d / sgcnn:
        The two head models (typically pre-trained).
    config:
        Fusion hyper-parameters. ``config.coherent`` selects whether
        gradients flow into the heads (Coherent) or the heads are frozen
        feature extractors (Mid-level).
    seed:
        Seed for fusion-layer initialization and dropout.
    """

    def __init__(self, cnn3d: CNN3D, sgcnn: SGCNN, config: FusionConfig | None = None, seed: int = 0) -> None:
        super().__init__()
        self.config = config or MidFusionConfig()
        cfg = self.config
        self.cnn3d = cnn3d
        self.sgcnn = sgcnn
        rng = spawn_rng(seed, "fusion")
        self.activation = make_activation(cfg.activation)

        d3 = cnn3d.latent_dim
        dsg = sgcnn.latent_dim
        fusion_input = d3 + dsg
        if cfg.model_specific_layers:
            # per-head dense layers whose outputs are concatenated with the
            # original latent vectors (Figure 1, dashed yellow blocks)
            self.specific_3d = Linear(d3, max(d3 // 2, 4), rng=rng)
            self.specific_sg = Linear(dsg, max(dsg // 2, 4), rng=rng)
            fusion_input += max(d3 // 2, 4) + max(dsg // 2, 4)
        else:
            self.specific_3d = None
            self.specific_sg = None

        width = cfg.fusion_dense_nodes
        self.dropout_early = Dropout(cfg.dropout1, rng=rng) if cfg.dropout1 > 0 else None
        self.dropout_mid = Dropout(cfg.dropout2, rng=rng) if cfg.dropout2 > 0 else None
        self.dropout_late = Dropout(cfg.dropout3, rng=rng) if cfg.dropout3 > 0 else None

        self._fusion_layer_names: list[str] = []
        in_dim = fusion_input
        n_hidden = max(cfg.num_fusion_layers - 1, 1)
        for index in range(n_hidden):
            layer = Linear(in_dim, width, rng=rng)
            name = f"fusion_fc{index}"
            setattr(self, name, layer)
            self._fusion_layer_names.append(name)
            if cfg.batch_norm:
                setattr(self, f"fusion_bn{index}", BatchNorm1d(width))
            in_dim = width
        self.fusion_out = Linear(in_dim, 1, rng=rng)
        self.register_buffer("out_mean", np.zeros(1))
        self.register_buffer("out_std", np.ones(1))

    def calibrate_output(self, mean: float, std: float) -> None:
        """Set the output affine calibration from the training-label statistics."""
        self.out_mean[...] = float(mean)
        self.out_std[...] = max(float(std), 1e-6)

    # ------------------------------------------------------------------ #
    @property
    def coherent(self) -> bool:
        """Whether gradients are backpropagated through the heads."""
        return bool(self.config.coherent)

    def head_latents(self, batch: dict) -> tuple[Tensor, Tensor]:
        """Latent vectors of both heads, detached when running Mid-level Fusion."""
        if self.coherent:
            latent_3d = self.cnn3d.latent(batch)
            latent_sg = self.sgcnn.latent(batch)
            return latent_3d, latent_sg
        with no_grad():
            latent_3d = self.cnn3d.latent(batch)
            latent_sg = self.sgcnn.latent(batch)
        return Tensor(latent_3d.data.copy()), Tensor(latent_sg.data.copy())

    def fusion_parameters(self):
        """Parameters of the fusion layers only (what Mid-level Fusion trains)."""
        head_param_ids = {id(p) for p in self.cnn3d.parameters()} | {
            id(p) for p in self.sgcnn.parameters()
        }
        return [p for p in self.parameters() if id(p) not in head_param_ids]

    def trainable_parameters(self):
        """Parameters updated during training (all for Coherent, fusion-only otherwise)."""
        return self.parameters() if self.coherent else self.fusion_parameters()

    # ------------------------------------------------------------------ #
    def forward(self, batch: dict) -> Tensor:
        cfg = self.config
        latent_3d, latent_sg = self.head_latents(batch)
        pieces = [latent_3d, latent_sg]
        if self.specific_3d is not None:
            pieces.append(self.activation(self.specific_3d(latent_3d)))
        if self.specific_sg is not None:
            pieces.append(self.activation(self.specific_sg(latent_sg)))
        x = Tensor.cat(pieces, axis=1)
        if self.dropout_early is not None:
            x = self.dropout_early(x)

        n_layers = len(self._fusion_layer_names)
        for index, name in enumerate(self._fusion_layer_names):
            layer = getattr(self, name)
            out = layer(x)
            if cfg.batch_norm:
                out = getattr(self, f"fusion_bn{index}")(out)
            out = self.activation(out)
            if cfg.residual_fusion_layers and out.shape == x.shape:
                out = out + x
            x = out
            if index == n_layers // 2 and self.dropout_mid is not None:
                x = self.dropout_mid(x)
        if self.dropout_late is not None:
            x = self.dropout_late(x)
        out = self.fusion_out(x)
        out = out * float(self.out_std[0]) + float(self.out_mean[0])
        return out.reshape(out.shape[0])


class MidFusion(FusionNetwork):
    """Mid-level Fusion: frozen heads, trained fusion layers (paper Table 4)."""

    def __init__(self, cnn3d: CNN3D, sgcnn: SGCNN, config: MidFusionConfig | None = None, seed: int = 0) -> None:
        config = config or MidFusionConfig()
        if config.coherent:
            raise ValueError("MidFusion requires config.coherent = False")
        super().__init__(cnn3d, sgcnn, config, seed=seed)


class CoherentFusion(FusionNetwork):
    """Coherent Fusion: end-to-end backpropagation through both heads (paper Table 5)."""

    def __init__(self, cnn3d: CNN3D, sgcnn: SGCNN, config: CoherentFusionConfig | None = None, seed: int = 0) -> None:
        config = config or CoherentFusionConfig()
        if not config.coherent:
            raise ValueError("CoherentFusion requires config.coherent = True")
        super().__init__(cnn3d, sgcnn, config, seed=seed)

    @staticmethod
    def from_pretrained(cnn3d: CNN3D, sgcnn: SGCNN, config: CoherentFusionConfig | None = None, seed: int = 0) -> "CoherentFusion":
        """Build a Coherent Fusion model reusing pre-trained head weights.

        The heads are passed by reference, so they carry whatever weights
        the caller trained or restored (``Module.load_state_dict``). This mirrors
        the paper's finding that initializing from the individually trained
        heads significantly improves validation loss.
        """
        config = config or CoherentFusionConfig()
        return CoherentFusion(cnn3d, sgcnn, config, seed=seed)
