"""A small NumPy autograd engine and neural-network toolkit.

This sub-package stands in for PyTorch / PyTorch-Geometric in the paper's
stack.  It provides reverse-mode automatic differentiation over NumPy
arrays (:class:`repro.nn.tensor.Tensor`), the layers needed by the FAST
model family (3D convolutions, pooling, dense layers, batch
normalization, dropout, gated graph convolutions and graph gather
pooling), the optimizers explored by the PB2 search (Adam, AdamW,
RMSprop, Adadelta, SGD), the MSE loss the models train on, and the
mini-batch loader of the scalar training loop.
"""

from repro.nn.tensor import Tensor, no_grad, is_grad_enabled
from repro.nn import functional
from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    SELU,
    BatchNorm1d,
    Conv3d,
    Dropout,
    LeakyReLU,
    Linear,
    MaxPool3d,
    ReLU,
)
from repro.nn.graph_layers import FlatEdges, FlatGraphBatch, GatedGraphConv, GraphGather, GraphBatch
from repro.nn.optim import SGD, Adadelta, Adam, AdamW, Optimizer, ParameterPack, RMSprop, build_optimizer
from repro.nn.loss import mse_loss
from repro.nn.dataloader import DataLoader

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "Conv3d",
    "MaxPool3d",
    "BatchNorm1d",
    "Dropout",
    "ReLU",
    "LeakyReLU",
    "SELU",
    "GatedGraphConv",
    "GraphGather",
    "FlatEdges",
    "FlatGraphBatch",
    "GraphBatch",
    "Optimizer",
    "ParameterPack",
    "SGD",
    "Adam",
    "AdamW",
    "RMSprop",
    "Adadelta",
    "build_optimizer",
    "mse_loss",
    "DataLoader",
]
