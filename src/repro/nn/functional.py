"""Functional neural-network operations built on :class:`repro.nn.Tensor`.

The 3D convolution / pooling kernels here power the voxel-based 3D-CNN
head of the Fusion model. ``conv3d`` takes its patches as a
``numpy.lib.stride_tricks.sliding_window_view`` and runs forward and
backward as one fixed plan of explicit ``matmul`` calls (no Python loop
over voxels, no per-call contraction planning); the operand layouts are
fixed because they decide the floating-point bits. See "3-D convolution:
one explicit GEMM plan" in ``docs/training.md``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.tensor import Tensor, is_grad_enabled


# --------------------------------------------------------------------------- #
# Dense / activation helpers
# --------------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias``.

    ``weight`` has shape ``(out_features, in_features)`` following the
    PyTorch convention so checkpoints map one-to-one.
    """
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky rectified linear unit (Xu et al. 2015)."""
    return x.leaky_relu(negative_slope)


def selu(x: Tensor) -> Tensor:
    """Self-normalizing SELU activation (Klambauer et al. 2017)."""
    return x.selu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` during training."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the batch (and spatial) axes.

    ``x`` may be ``(N, F)`` or ``(N, C, D, H, W)``; statistics are computed
    over every axis except the feature/channel axis (axis 1 for 5-D input,
    axis 1 for 2-D input). Running statistics are updated in place when
    ``training`` is true.
    """
    if x.ndim == 2:
        axes = (0,)
        stat_shape = (1, x.shape[1])
    elif x.ndim == 5:
        axes = (0, 2, 3, 4)
        stat_shape = (1, x.shape[1], 1, 1, 1)
    else:
        raise ValueError(f"batch_norm supports 2-D or 5-D input, got {x.ndim}-D")

    if training:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.data.reshape(running_mean.shape)
        running_var *= 1.0 - momentum
        running_var += momentum * var.data.reshape(running_var.shape)
    else:
        mean = Tensor(running_mean.reshape(stat_shape))
        var = Tensor(running_var.reshape(stat_shape))

    inv_std = (var + eps) ** -0.5
    normalized = (x - mean) * inv_std
    return normalized * gamma.reshape(stat_shape) + beta.reshape(stat_shape)


# --------------------------------------------------------------------------- #
# 3-D convolution / pooling
# --------------------------------------------------------------------------- #
def conv3d(x: Tensor, weight: Tensor, bias: Tensor | None = None, padding: int = 0) -> Tensor:
    """3-D cross-correlation with stride 1.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, D, H, W)``.
    weight:
        Kernels of shape ``(C_out, C_in, kD, kH, kW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    padding:
        Symmetric zero padding applied to each spatial axis.

    Returns
    -------
    Tensor of shape ``(N, C_out, D', H', W')`` where ``D' = D + 2p - kD + 1``.
    """
    if x.ndim != 5:
        raise ValueError(f"conv3d expects 5-D input (N, C, D, H, W), got shape {x.shape}")
    if weight.ndim != 5:
        raise ValueError(f"conv3d expects 5-D weight (F, C, kD, kH, kW), got shape {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"input channels ({x.shape[1]}) do not match kernel channels ({weight.shape[1]})"
        )
    padding = int(padding)
    x_data = x.data
    if padding > 0:
        x_data = np.pad(
            x_data, ((0, 0), (0, 0), (padding, padding), (padding, padding), (padding, padding))
        )
    kd, kh, kw = weight.shape[2:]
    for axis, k in zip((2, 3, 4), (kd, kh, kw)):
        if x_data.shape[axis] < k:
            raise ValueError(
                f"spatial size {x_data.shape[2:]} smaller than kernel {(kd, kh, kw)} after padding"
            )

    # patches: (N, C, D', H', W', kd, kh, kw) — a view, not a copy.
    patches = sliding_window_view(x_data, (kd, kh, kw), axis=(2, 3, 4))
    n, c, do, ho, wo = patches.shape[:5]
    f = weight.shape[0]
    k = c * kd * kh * kw
    m = n * do * ho * wo

    def patch_matrix():
        # C-order (K, M) copy of the patches, K = (c, kd, kh, kw), M = (n, d, h, w)
        return patches.transpose(1, 5, 6, 7, 0, 2, 3, 4).reshape(k, m)

    out_fm = np.matmul(weight.data.reshape(f, k), patch_matrix())
    out_data = out_fm.reshape(f, n, do, ho, wo).transpose(1, 0, 2, 3, 4)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, -1, 1, 1, 1)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad):
        # grad: (N, F, D', H', W'); the patch matrix is rebuilt, not kept alive
        grad_mf = grad.transpose(0, 2, 3, 4, 1).reshape(m, f)
        grad_w = np.matmul(patch_matrix(), grad_mf).reshape(c, kd, kh, kw, f).transpose(4, 0, 1, 2, 3)
        grad_b = grad.sum(axis=(0, 2, 3, 4)) if bias is not None else None

        # Gradient wrt input: scatter each kernel offset's contribution, in a
        # fixed offset order. The left operand stays the strided (C, F) view:
        # a contiguous copy takes another BLAS path and changes the bits.
        grad_fm = grad.transpose(1, 0, 2, 3, 4).reshape(f, m)
        grad_x_padded = np.zeros_like(x_data)
        for dz in range(kd):
            for dy in range(kh):
                for dx in range(kw):
                    contrib = np.matmul(weight.data[:, :, dz, dy, dx].T, grad_fm)
                    grad_x_padded[:, :, dz : dz + do, dy : dy + ho, dx : dx + wo] += (
                        contrib.reshape(c, n, do, ho, wo).transpose(1, 0, 2, 3, 4)
                    )
        if padding > 0:
            grad_x = grad_x_padded[
                :, :, padding:-padding or None, padding:-padding or None, padding:-padding or None
            ]
        else:
            grad_x = grad_x_padded
        grads = [grad_x, grad_w]
        if bias is not None:
            grads.append(grad_b)
        return tuple(grads)

    return x._make(out_data, tuple(parents), backward)


def max_pool3d(x: Tensor, kernel_size: int = 2, stride: int | None = None) -> Tensor:
    """3-D max pooling with cubic windows.

    Trailing voxels that do not fill a complete window are dropped, the
    same behaviour as the default (non-ceil) mode in the reference
    implementation.
    """
    if x.ndim != 5:
        raise ValueError(f"max_pool3d expects 5-D input, got shape {x.shape}")
    k = int(kernel_size)
    s = int(stride) if stride is not None else k
    n, c, d, h, w = x.shape
    do, ho, wo = (d - k) // s + 1, (h - k) // s + 1, (w - k) // s + 1
    if do <= 0 or ho <= 0 or wo <= 0:
        raise ValueError(f"pooling window {k} too large for input spatial shape {(d, h, w)}")

    windows = sliding_window_view(x.data, (k, k, k), axis=(2, 3, 4))[:, :, ::s, ::s, ::s]
    flat = windows.reshape(n, c, do, ho, wo, k * k * k)
    argmax = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]

    def backward(grad):
        grad_x = np.zeros_like(x.data)
        # offsets of the argmax inside each window
        oz, rem = np.divmod(argmax, k * k)
        oy, ox = np.divmod(rem, k)
        idx_n, idx_c, idx_d, idx_h, idx_w = np.indices((n, c, do, ho, wo), sparse=False)
        src_d = idx_d * s + oz
        src_h = idx_h * s + oy
        src_w = idx_w * s + ox
        np.add.at(grad_x, (idx_n, idx_c, src_d, src_h, src_w), grad)
        return (grad_x,)

    return x._make(out_data, (x,), backward)


def global_avg_pool3d(x: Tensor) -> Tensor:
    """Average over the spatial axes of a ``(N, C, D, H, W)`` tensor."""
    if x.ndim != 5:
        raise ValueError(f"global_avg_pool3d expects 5-D input, got shape {x.shape}")
    return x.mean(axis=(2, 3, 4))


def flatten(x: Tensor, start_axis: int = 1) -> Tensor:
    """Flatten all axes from ``start_axis`` onwards."""
    lead = x.shape[:start_axis]
    tail = int(np.prod(x.shape[start_axis:])) if x.ndim > start_axis else 1
    return x.reshape(*lead, tail)
