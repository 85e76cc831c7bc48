"""Reference implementations of the 3-D convolution kernel and the optimizer steps.

``reference_conv3d`` is the ``np.einsum`` formulation
``repro.nn.functional.conv3d`` used before it ran as one explicit GEMM
plan. The ``Reference*`` optimizers are the per-parameter update loops
the optimizers ran before every step went through one fused vector
update, and ``reference_clip_gradients`` is the per-parameter clip the
scalar trainer ran before it clipped the flat gradient.  They are kept
here only as test oracles: the production code must match them bit for
bit (``tobytes``).
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


# ---------------------------------------------------------------------- #
# Per-parameter optimizer steps
# ---------------------------------------------------------------------- #
class ReferenceOptimizer:
    """Steps each parameter from its own ``p.grad``; skips a parameter without one."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)
        self.step_count = 0

    def _slots(self):
        return [np.zeros_like(p.data) for p in self.params]


class ReferenceSGD(ReferenceOptimizer):
    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = self._slots()

    def step(self):
        self.step_count += 1
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                update = v
            else:
                update = grad
            p.data -= self.lr * update


class ReferenceAdam(ReferenceOptimizer):
    decoupled = False

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = self._slots()
        self._v = self._slots()

    def step(self):
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay and not self.decoupled:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if self.decoupled and self.weight_decay:
                update = update + self.lr * self.weight_decay * p.data
            p.data -= update


class ReferenceAdamW(ReferenceAdam):
    decoupled = True


class ReferenceRMSprop(ReferenceOptimizer):
    def __init__(self, params, lr=1e-2, alpha=0.99, eps=1e-8):
        super().__init__(params, lr)
        self.alpha = float(alpha)
        self.eps = float(eps)
        self._sq = self._slots()

    def step(self):
        self.step_count += 1
        for p, sq in zip(self.params, self._sq):
            if p.grad is None:
                continue
            sq *= self.alpha
            sq += (1.0 - self.alpha) * p.grad * p.grad
            p.data -= self.lr * p.grad / (np.sqrt(sq) + self.eps)


class ReferenceAdadelta(ReferenceOptimizer):
    def __init__(self, params, lr=1.0, rho=0.9, eps=1e-6):
        super().__init__(params, lr)
        self.rho = float(rho)
        self.eps = float(eps)
        self._acc_grad = self._slots()
        self._acc_delta = self._slots()

    def step(self):
        self.step_count += 1
        for p, acc_g, acc_d in zip(self.params, self._acc_grad, self._acc_delta):
            if p.grad is None:
                continue
            acc_g *= self.rho
            acc_g += (1.0 - self.rho) * p.grad * p.grad
            delta = np.sqrt(acc_d + self.eps) / np.sqrt(acc_g + self.eps) * p.grad
            acc_d *= self.rho
            acc_d += (1.0 - self.rho) * delta * delta
            p.data -= self.lr * delta


#: The per-parameter reference of each optimizer, by its Table 1 name.
REFERENCE_OPTIMIZERS = {
    "sgd": ReferenceSGD,
    "adam": ReferenceAdam,
    "adamw": ReferenceAdamW,
    "rmsprop": ReferenceRMSprop,
    "adadelta": ReferenceAdadelta,
}


def reference_clip_gradients(params, max_norm):
    """Scale every set ``p.grad`` in place so their joint L2 norm is at most ``max_norm``."""
    params = [p for p in params if p.grad is not None]
    if not params:
        return
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
