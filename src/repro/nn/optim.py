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
    working while whole-model updates become single vector operations
    over :attr:`buffer`.  Optimizer moment slots are packed the same way
    with :meth:`pack_slots`, which is what the fused ``step_fused`` path
    operates on.

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

    def pack_slots(self, slots: list[np.ndarray]) -> np.ndarray:
        """Pack per-parameter slot arrays (moments) into one flat buffer.

        The list entries are replaced in place by views into the returned
        buffer, so both the per-parameter ``step()`` loop and the fused
        vector path see the same storage.
        """
        flat = np.empty(self.size, dtype=np.float64)
        views = self.views(flat)
        if len(slots) != len(views):
            raise ValueError("slot list does not match the packed parameter list")
        for view, slot in zip(views, slots):
            view[...] = slot
        slots[:] = views
        return flat

    def grad_vector(self) -> np.ndarray:
        """Concatenated parameter gradients (zeros where a grad is unset)."""
        out = np.zeros(self.size, dtype=np.float64)
        for p, (off, size, _shape) in zip(self.params, self._slices):
            if p.grad is not None:
                out[off : off + size] = np.asarray(p.grad, dtype=np.float64).ravel()
        return out

    def get_flat(self) -> np.ndarray:
        """Copy of the packed parameter values."""
        return self.buffer.copy()


class Optimizer:
    """Base class holding a parameter list and a learning rate."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.step_count = 0
        self._pack: ParameterPack | None = None

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update using the gradients currently stored on the parameters."""
        raise NotImplementedError

    # -- fused vector path --------------------------------------------------
    def fuse(self) -> ParameterPack:
        """Pack parameters (and moment slots) into contiguous flat buffers.

        After fusing, :meth:`step_fused` applies whole-model updates as
        single vector operations — elementwise identical (bitwise) to the
        per-parameter :meth:`step` loop, since every update formula is
        purely elementwise.  Idempotent; returns the pack.
        """
        if self._pack is None:
            self._pack = ParameterPack(self.params)
            self._fuse_state(self._pack)
        return self._pack

    def _fuse_state(self, pack: ParameterPack) -> None:
        """Pack optimizer moment slots; overridden by stateful optimizers."""

    def step_fused(self, grad_flat: np.ndarray) -> None:
        """Apply one update from an explicit flat gradient vector.

        Unlike :meth:`step`, the gradient is supplied by the caller (the
        distributed trainer hands in the exactly-reduced global
        gradient) and *every* packed parameter is updated — a parameter
        without gradient signal contributes zeros rather than being
        skipped.
        """
        if self._pack is None:
            raise RuntimeError("step_fused requires fuse() to have been called")
        grad_flat = np.asarray(grad_flat, dtype=np.float64)
        if grad_flat.shape != (self._pack.size,):
            raise ValueError(f"expected a flat ({self._pack.size},) gradient, got {grad_flat.shape}")
        self.step_count += 1
        self._step_fused(grad_flat)

    def _step_fused(self, grad: np.ndarray) -> None:
        raise NotImplementedError

    # -- state (for checkpoint / PB2 exploit) -------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return optimizer state (moment estimates etc.) keyed by slot name.

        Every optimizer saves ``step`` so restored step accounting (bias
        correction) resumes where it left off —
        previously only Adam did, and a restored SGD/RMSprop/Adadelta
        silently restarted from step 0.
        """
        return {"step": np.asarray(self.step_count)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore optimizer state produced by :meth:`state_dict`."""
        if "step" in state:
            self.step_count = int(state["step"])


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: Iterable[Parameter], lr: float, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
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

    def _fuse_state(self, pack):
        self._velocity_flat = pack.pack_slots(self._velocity)

    def _step_fused(self, grad):
        if self.weight_decay:
            grad = grad + self.weight_decay * self._pack.buffer
        if self.momentum:
            self._velocity_flat *= self.momentum
            self._velocity_flat += grad
            update = self._velocity_flat
        else:
            update = grad
        self._pack.buffer -= self.lr * update

    def state_dict(self):
        state = super().state_dict()
        state.update({f"velocity/{i}": v.copy() for i, v in enumerate(self._velocity)})
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        for i in range(len(self._velocity)):
            key = f"velocity/{i}"
            if key in state:
                self._velocity[i][...] = state[key]


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
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def _apply_weight_decay(self, p: Parameter, grad: np.ndarray) -> np.ndarray:
        # classic (L2-coupled) weight decay; AdamW overrides.
        if self.weight_decay:
            return grad + self.weight_decay * p.data
        return grad

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = self._apply_weight_decay(p, p.grad)
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if isinstance(self, AdamW) and self.weight_decay:
                update = update + self.lr * self.weight_decay * p.data
            p.data -= update

    def _fuse_state(self, pack):
        self._m_flat = pack.pack_slots(self._m)
        self._v_flat = pack.pack_slots(self._v)

    def _step_fused(self, grad):
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        if self.weight_decay and not isinstance(self, AdamW):
            grad = grad + self.weight_decay * self._pack.buffer
        self._m_flat *= self.beta1
        self._m_flat += (1.0 - self.beta1) * grad
        self._v_flat *= self.beta2
        self._v_flat += (1.0 - self.beta2) * grad * grad
        m_hat = self._m_flat / bias1
        v_hat = self._v_flat / bias2
        update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        if isinstance(self, AdamW) and self.weight_decay:
            update = update + self.lr * self.weight_decay * self._pack.buffer
        self._pack.buffer -= update

    def state_dict(self):
        state = super().state_dict()
        state.update({f"m/{i}": m.copy() for i, m in enumerate(self._m)})
        state.update({f"v/{i}": v.copy() for i, v in enumerate(self._v)})
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        for i in range(len(self._m)):
            if f"m/{i}" in state:
                self._m[i][...] = state[f"m/{i}"]
            if f"v/{i}" in state:
                self._v[i][...] = state[f"v/{i}"]


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter 2017)."""

    def _apply_weight_decay(self, p: Parameter, grad: np.ndarray) -> np.ndarray:
        # Decoupled: decay is applied directly to the weights in step().
        return grad


class RMSprop(Optimizer):
    """RMSprop (Graves 2013)."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-2, alpha: float = 0.99, eps: float = 1e-8) -> None:
        super().__init__(params, lr)
        self.alpha = float(alpha)
        self.eps = float(eps)
        self._sq = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        for p, sq in zip(self.params, self._sq):
            if p.grad is None:
                continue
            sq *= self.alpha
            sq += (1.0 - self.alpha) * p.grad * p.grad
            p.data -= self.lr * p.grad / (np.sqrt(sq) + self.eps)

    def _fuse_state(self, pack):
        self._sq_flat = pack.pack_slots(self._sq)

    def _step_fused(self, grad):
        self._sq_flat *= self.alpha
        self._sq_flat += (1.0 - self.alpha) * grad * grad
        self._pack.buffer -= self.lr * grad / (np.sqrt(self._sq_flat) + self.eps)

    def state_dict(self):
        state = super().state_dict()
        state.update({f"sq/{i}": s.copy() for i, s in enumerate(self._sq)})
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        for i in range(len(self._sq)):
            if f"sq/{i}" in state:
                self._sq[i][...] = state[f"sq/{i}"]


class Adadelta(Optimizer):
    """Adadelta (Zeiler 2012; listed in the paper under Duchi et al. adaptive methods)."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1.0, rho: float = 0.9, eps: float = 1e-6) -> None:
        super().__init__(params, lr)
        self.rho = float(rho)
        self.eps = float(eps)
        self._acc_grad = [np.zeros_like(p.data) for p in self.params]
        self._acc_delta = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
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

    def _fuse_state(self, pack):
        self._acc_grad_flat = pack.pack_slots(self._acc_grad)
        self._acc_delta_flat = pack.pack_slots(self._acc_delta)

    def _step_fused(self, grad):
        self._acc_grad_flat *= self.rho
        self._acc_grad_flat += (1.0 - self.rho) * grad * grad
        delta = np.sqrt(self._acc_delta_flat + self.eps) / np.sqrt(self._acc_grad_flat + self.eps) * grad
        self._acc_delta_flat *= self.rho
        self._acc_delta_flat += (1.0 - self.rho) * delta * delta
        self._pack.buffer -= self.lr * delta

    def state_dict(self):
        state = super().state_dict()
        state.update({f"acc_grad/{i}": g.copy() for i, g in enumerate(self._acc_grad)})
        state.update({f"acc_delta/{i}": d.copy() for i, d in enumerate(self._acc_delta)})
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        for i in range(len(self._acc_grad)):
            if f"acc_grad/{i}" in state:
                self._acc_grad[i][...] = state[f"acc_grad/{i}"]
            if f"acc_delta/{i}" in state:
                self._acc_delta[i][...] = state[f"acc_delta/{i}"]


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
