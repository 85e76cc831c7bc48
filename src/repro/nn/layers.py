"""Layers used by the 3D-CNN, SG-CNN and Fusion networks."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import ensure_rng


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear features must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        rng = ensure_rng(rng)
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        if bias:
            bound = 1.0 / np.sqrt(in_features)
            self.bias = Parameter(rng.uniform(-bound, bound, size=(out_features,)))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv3d(Module):
    """3-D convolution layer (stride 1, optional symmetric padding)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        padding: int = 0,
        bias: bool = True,
        rng=None,
    ) -> None:
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.padding = int(padding)
        rng = ensure_rng(rng)
        shape = (out_channels, in_channels, kernel_size, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        if bias:
            fan_in = in_channels * kernel_size**3
            bound = 1.0 / np.sqrt(fan_in)
            self.bias = Parameter(rng.uniform(-bound, bound, size=(out_channels,)))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv3d(x, self.weight, self.bias, padding=self.padding)


class MaxPool3d(Module):
    """3-D max pooling."""

    def __init__(self, kernel_size: int = 2, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else self.kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool3d(x, self.kernel_size, self.stride)


class ReLU(Module):
    """Rectified linear unit layer."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class LeakyReLU(Module):
    """Leaky ReLU layer."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = float(negative_slope)

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.negative_slope)


class SELU(Module):
    """Scaled exponential linear unit layer."""

    def forward(self, x: Tensor) -> Tensor:
        return F.selu(x)


ACTIVATIONS = {"relu": ReLU, "lrelu": LeakyReLU, "leaky_relu": LeakyReLU, "selu": SELU}


def make_activation(name: str) -> Module:
    """Instantiate an activation layer by the names used in the paper's Table 1."""
    key = name.lower()
    if key not in ACTIVATIONS:
        raise ValueError(f"unknown activation '{name}'; options: {sorted(ACTIVATIONS)}")
    return ACTIVATIONS[key]()


class Dropout(Module):
    """Inverted dropout with a per-layer random stream."""

    def __init__(self, p: float, rng=None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = ensure_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)


class BatchNorm1d(Module):
    """Batch normalization over 2-D ``(N, F)`` inputs."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )


class BatchNorm3d(Module):
    """Batch normalization over 5-D ``(N, C, D, H, W)`` inputs."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )
