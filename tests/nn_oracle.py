"""Reference implementation of the 3-D convolution kernel.

This is the ``np.einsum`` formulation ``repro.nn.functional.conv3d`` used
before it ran as one explicit GEMM plan. It is kept here only as a test
oracle: the production kernel must match it bit for bit (``tobytes``) in
its output and in every gradient.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.tensor import Tensor


def reference_conv3d(x: Tensor, weight: Tensor, bias: Tensor | None = None, padding: int = 0) -> Tensor:
    """3-D cross-correlation with stride 1, as one ``einsum`` over patches."""
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
    out_data = np.einsum("ncdhwxyz,fcxyz->nfdhw", patches, weight.data, optimize=True)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, -1, 1, 1, 1)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad):
        # grad: (N, F, D', H', W')
        grad_w = np.einsum("nfdhw,ncdhwxyz->fcxyz", grad, patches, optimize=True)
        grad_b = grad.sum(axis=(0, 2, 3, 4)) if bias is not None else None

        # Gradient wrt input: scatter each kernel offset's contribution.
        grad_x_padded = np.zeros_like(x_data)
        n, f, do, ho, wo = grad.shape
        for dz in range(kd):
            for dy in range(kh):
                for dx in range(kw):
                    # contribution of kernel element (dz,dy,dx) to the input window
                    contrib = np.einsum(
                        "nfdhw,fc->ncdhw", grad, weight.data[:, :, dz, dy, dx], optimize=True
                    )
                    grad_x_padded[:, :, dz : dz + do, dy : dy + ho, dx : dx + wo] += contrib
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
