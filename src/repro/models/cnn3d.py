"""3D convolutional binding-affinity model (the voxel head of Fusion).

Architecture follows §3.3.1 of the paper: a stack of 3-D convolutions
whose filter sizes start at 5x5x5 and reduce to 3x3x3, max pooling between
blocks, optional residual connections around the second and third
convolution blocks ("Residual Option 1/2" in Figure 1), dropout above the
first two dense layers, and a dense head whose second layer is half the
width of the first.  The latent vector fed to Mid-level / Coherent Fusion
is the activation of the penultimate dense layer (Layer M-1 of the
M-layer network).
"""

from __future__ import annotations

import numpy as np

from repro.featurize.pipeline import BatchScoringMixin
from repro.models.config import CNN3DConfig
from repro.nn import functional as F
from repro.nn.layers import BatchNorm3d, Conv3d, Dropout, Linear, MaxPool3d, make_activation
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import spawn_rng


class CNN3D(BatchScoringMixin, Module):
    """Voxel-grid 3D-CNN predicting absolute binding affinity (pK).

    Parameters
    ----------
    config:
        Hyper-parameters (see :class:`repro.models.config.CNN3DConfig`).
    seed:
        Seed controlling weight initialization and dropout streams.
    """

    def __init__(self, config: CNN3DConfig | None = None, seed: int = 0) -> None:
        super().__init__()
        self.config = config or CNN3DConfig()
        cfg = self.config
        rng = spawn_rng(seed, "cnn3d")

        self.conv1 = Conv3d(cfg.in_channels, cfg.conv_filters_1, cfg.conv_kernel_1,
                            padding=cfg.conv_kernel_1 // 2, rng=rng)
        self.conv2 = Conv3d(cfg.conv_filters_1, cfg.conv_filters_2, cfg.conv_kernel_2,
                            padding=cfg.conv_kernel_2 // 2, rng=rng)
        self.conv3 = Conv3d(cfg.conv_filters_2, cfg.conv_filters_2, cfg.conv_kernel_2,
                            padding=cfg.conv_kernel_2 // 2, rng=rng)
        # residual projections (1x1x1 convolutions) used when the channel
        # count changes across a residually-connected block
        self.res_proj_1 = (
            Conv3d(cfg.conv_filters_1, cfg.conv_filters_2, 1, padding=0, rng=rng)
            if cfg.residual_option_1
            else None
        )
        self.pool = MaxPool3d(2)
        if cfg.batch_norm:
            self.bn1 = BatchNorm3d(cfg.conv_filters_1)
            self.bn2 = BatchNorm3d(cfg.conv_filters_2)
        else:
            self.bn1 = None
            self.bn2 = None
        self.activation = make_activation(cfg.activation)

        flat_dim = self._flattened_size()
        self.dropout1 = Dropout(cfg.dropout1, rng=rng) if cfg.dropout1 > 0 else None
        self.fc1 = Linear(flat_dim, cfg.dense_nodes, rng=rng)
        self.dropout2 = Dropout(cfg.dropout2, rng=rng) if cfg.dropout2 > 0 else None
        self.fc2 = Linear(cfg.dense_nodes, max(cfg.dense_nodes // 2, 4), rng=rng)
        self.dropout3 = Dropout(cfg.dropout3, rng=rng) if cfg.dropout3 > 0 else None
        self.fc_out = Linear(max(cfg.dense_nodes // 2, 4), 1, rng=rng)
        # output calibration buffers: predictions are out * std + mean, which
        # centres the network's initial predictions on the label distribution
        self.register_buffer("out_mean", np.zeros(1))
        self.register_buffer("out_std", np.ones(1))

    # ------------------------------------------------------------------ #
    @property
    def latent_dim(self) -> int:
        """Width of the latent vector exposed to the fusion layers."""
        return max(self.config.dense_nodes // 2, 4)

    def _flattened_size(self) -> int:
        """Spatial size after three pooling stages times the final channel count."""
        dim = self.config.grid_dim
        for _ in range(3):
            dim = (dim - 2) // 2 + 1
        if dim < 1:
            raise ValueError(
                f"grid_dim {self.config.grid_dim} too small for three pooling stages"
            )
        return self.config.conv_filters_2 * dim**3

    # ------------------------------------------------------------------ #
    def _backbone(self, voxel: Tensor) -> Tensor:
        cfg = self.config
        x = self.conv1(voxel)
        if self.bn1 is not None:
            x = self.bn1(x)
        x = self.activation(x)
        x = self.pool(x)

        conv2_out = self.conv2(x)
        if cfg.residual_option_1:
            conv2_out = conv2_out + self.res_proj_1(x)
        if self.bn2 is not None:
            conv2_out = self.bn2(conv2_out)
        x = self.pool(self.activation(conv2_out))

        conv3_out = self.conv3(x)
        if cfg.residual_option_2:
            conv3_out = conv3_out + x
        x = self.pool(self.activation(conv3_out))
        return F.flatten(x, start_axis=1)

    def latent(self, batch: dict) -> Tensor:
        """Latent feature vector (penultimate dense activation), shape ``(N, latent_dim)``."""
        voxel = batch["voxel"] if isinstance(batch, dict) else batch
        x = voxel if isinstance(voxel, Tensor) else Tensor(np.asarray(voxel))
        x = self._backbone(x)
        if self.dropout1 is not None:
            x = self.dropout1(x)
        x = self.activation(self.fc1(x))
        if self.dropout2 is not None:
            x = self.dropout2(x)
        x = self.activation(self.fc2(x))
        return x

    def calibrate_output(self, mean: float, std: float) -> None:
        """Set the output affine calibration from the training-label statistics."""
        self.out_mean[...] = float(mean)
        self.out_std[...] = max(float(std), 1e-6)

    def forward(self, batch: dict) -> Tensor:
        """Predict pK for a batch dict (uses the ``"voxel"`` entry), shape ``(N,)``."""
        latent = self.latent(batch)
        if self.dropout3 is not None:
            latent = self.dropout3(latent)
        out = self.fc_out(latent)
        out = out * float(self.out_std[0]) + float(self.out_mean[0])
        return out.reshape(out.shape[0])
