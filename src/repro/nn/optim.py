"""Optimizers explored by the PB2 hyper-parameter search (Table 1)."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.module import Parameter


class ParameterPack:
    """Contiguous flat storage for a parameter list.

    Packing copies every parameter into one float64 buffer and rebinds
    each ``p.data`` to a view into it, so per-parameter access (forward
    passes, ``load_state_dict`` writes via ``data[...] = value``) keeps
    working while the optimizer updates the whole model as single
    vector operations over :attr:`buffer`, from the flat gradient of
    :meth:`grad_vector`.

    Code that *replaces* ``p.data`` (rather than writing into it) breaks
    the aliasing; the trainer owns the model lifecycle while a pack is
    live.
    """

    def __init__(self, params: Iterable[Parameter]) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("cannot pack an empty parameter list")
        self._slices: list[tuple[int, int, tuple[int, ...]]] = []
        offset = 0
        for p in self.params:
            size = int(p.data.size)
            self._slices.append((offset, size, p.data.shape))
            offset += size
        self.size = offset
        self.buffer = np.empty(self.size, dtype=np.float64)
        for p, (off, size, shape) in zip(self.params, self._slices):
            self.buffer[off : off + size] = np.asarray(p.data, dtype=np.float64).ravel()
            p.data = self.buffer[off : off + size].reshape(shape)

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter reshaped views into ``flat`` (same layout as the buffer)."""
        flat = np.asarray(flat)
        if flat.shape != (self.size,):
            raise ValueError(f"expected a flat ({self.size},) vector, got {flat.shape}")
        return [flat[off : off + size].reshape(shape) for off, size, shape in self._slices]

    def grad_vector(self) -> np.ndarray:
        """Concatenated parameter gradients (zeros where a grad is unset)."""
        out = np.zeros(self.size, dtype=np.float64)
        for p, (off, size, _shape) in zip(self.params, self._slices):
            if p.grad is not None:
                out[off : off + size] = np.asarray(p.grad, dtype=np.float64).ravel()
        return out


class Optimizer:
    """Base class: packs its parameter list at construction and steps it as one vector."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.step_count = 0
        self._pack = ParameterPack(self.params)

    def _zeros(self) -> np.ndarray:
        """A flat moment buffer in the pack's layout."""
        return np.zeros(self._pack.size, dtype=np.float64)

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def fuse(self) -> ParameterPack:
        """The pack made at construction: every ``p.data`` is a view of its buffer.

        Callers read the flat gradient from it (:meth:`ParameterPack.grad_vector`)
        and hand it, reduced or clipped as they need, to :meth:`step_fused`.
        """
        return self._pack

    def step_fused(self, grad_flat: np.ndarray) -> None:
        """Apply one update from an explicit flat gradient vector.

        Every packed parameter is updated: one that received no gradient
        takes a zero gradient (``grad_vector`` fills zeros) instead of
        being skipped, so it still moves under weight decay or leftover
        momentum. With ``weight_decay=0`` and zero moments its bits stay
        unchanged.
        """
        grad_flat = np.asarray(grad_flat, dtype=np.float64)
        if grad_flat.shape != (self._pack.size,):
            raise ValueError(f"expected a flat ({self._pack.size},) gradient, got {grad_flat.shape}")
        self.step_count += 1
        self._step_fused(grad_flat)

    def _step_fused(self, grad: np.ndarray) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: Iterable[Parameter], lr: float, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = self._zeros()

    def _step_fused(self, grad):
        if self.weight_decay:
            grad = grad + self.weight_decay * self._pack.buffer
        if self.momentum:
            self._velocity *= self.momentum
            self._velocity += grad
            update = self._velocity
        else:
            update = grad
        self._pack.buffer -= self.lr * update


class Adam(Optimizer):
    """Adam (Kingma & Ba 2014)."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: Sequence[float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = self._zeros()
        self._v = self._zeros()

    def _step_fused(self, grad):
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        decoupled = isinstance(self, AdamW)
        if self.weight_decay and not decoupled:
            grad = grad + self.weight_decay * self._pack.buffer
        self._m *= self.beta1
        self._m += (1.0 - self.beta1) * grad
        self._v *= self.beta2
        self._v += (1.0 - self.beta2) * grad * grad
        m_hat = self._m / bias1
        v_hat = self._v / bias2
        update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        if self.weight_decay and decoupled:
            update = update + self.lr * self.weight_decay * self._pack.buffer
        self._pack.buffer -= update


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter 2017)."""


class RMSprop(Optimizer):
    """RMSprop (Graves 2013)."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-2, alpha: float = 0.99, eps: float = 1e-8) -> None:
        super().__init__(params, lr)
        self.alpha = float(alpha)
        self.eps = float(eps)
        self._sq = self._zeros()

    def _step_fused(self, grad):
        self._sq *= self.alpha
        self._sq += (1.0 - self.alpha) * grad * grad
        self._pack.buffer -= self.lr * grad / (np.sqrt(self._sq) + self.eps)


class Adadelta(Optimizer):
    """Adadelta (Zeiler 2012; listed in the paper under Duchi et al. adaptive methods)."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1.0, rho: float = 0.9, eps: float = 1e-6) -> None:
        super().__init__(params, lr)
        self.rho = float(rho)
        self.eps = float(eps)
        self._acc_grad = self._zeros()
        self._acc_delta = self._zeros()

    def _step_fused(self, grad):
        self._acc_grad *= self.rho
        self._acc_grad += (1.0 - self.rho) * grad * grad
        delta = np.sqrt(self._acc_delta + self.eps) / np.sqrt(self._acc_grad + self.eps) * grad
        self._acc_delta *= self.rho
        self._acc_delta += (1.0 - self.rho) * delta * delta
        self._pack.buffer -= self.lr * delta


OPTIMIZERS = {
    "sgd": SGD,
    "adam": Adam,
    "adamw": AdamW,
    "rmsprop": RMSprop,
    "adadelta": Adadelta,
}


def build_optimizer(name: str, params: Iterable[Parameter], lr: float, **kwargs) -> Optimizer:
    """Instantiate an optimizer by the lowercase names used in Table 1."""
    key = name.lower()
    if key not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer '{name}'; options: {sorted(OPTIMIZERS)}")
    return OPTIMIZERS[key](params, lr=lr, **kwargs)
