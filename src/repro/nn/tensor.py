"""Reverse-mode automatic differentiation over NumPy arrays.

The :class:`Tensor` class records a dynamic computation graph as
operations are applied and computes gradients with a single reverse
topological sweep, exactly the programming model the paper's PyTorch
implementation relies on.  Only the operations required by the FAST /
Fusion model family are implemented, but each is implemented with full
broadcasting support and is validated against finite differences in the
test suite.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

# Gradient recording is tracked per thread: the distributed scoring jobs run
# MPI ranks on a thread pool, each wrapping its inference in ``no_grad()``,
# and one rank's inference mode must not leak into another thread (or into
# the main thread's training loop).
_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Return whether gradient recording is currently enabled (per thread)."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape of a broadcast result) back to ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like value. Stored as ``float64`` by default for numerical
        robustness of gradient checks; ``float32`` may be requested.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100.0  # numpy defers to Tensor in mixed expressions

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64, name: str = "") -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _promote(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: Sequence["Tensor"], backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data, dtype=data.dtype)
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None or grad is self.data else grad
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be specified for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        # Topological order of the graph reachable from self.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        self._accumulate(grad)
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None or node._backward is None:
                continue
            # A closure returns None for a parent whose gradient it skipped:
            # matmul, *, / and conv3d build a parent's gradient only if that
            # parent requires grad, read when backward runs.
            parent_grads = node._backward(node_grad)
            if parent_grads is None:
                continue
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                pgrad = np.asarray(pgrad, dtype=parent.data.dtype)
                parent._accumulate(pgrad)
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pgrad
                else:
                    grads[id(parent)] = pgrad

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = self._promote(other)
        data = self.data + other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(grad, other.shape))

        return self._make(data, (self, other), backward)

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad):
            return (-grad,)

        return self._make(data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = self._promote(other)
        data = self.data - other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(-grad, other.shape))

        return self._make(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._promote(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._promote(other)
        data = self.data * other.data

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.shape) if self.requires_grad else None,
                _unbroadcast(grad * self.data, other.shape) if other.requires_grad else None,
            )

        return self._make(data, (self, other), backward)

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        other = self._promote(other)
        data = self.data / other.data

        def backward(grad):
            return (
                _unbroadcast(grad / other.data, self.shape) if self.requires_grad else None,
                _unbroadcast(-grad * self.data / (other.data**2), other.shape) if other.requires_grad else None,
            )

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._promote(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        data = self.data**exponent

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1.0),)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Matrix operations and shape manipulation
    # ------------------------------------------------------------------ #
    def matmul(self, other) -> "Tensor":
        """Matrix product supporting 2-D and batched operands."""
        other = self._promote(other)
        data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                # inner product: the upstream gradient is a 0-d scalar
                return (
                    grad * b if self.requires_grad else None,
                    grad * a if other.requires_grad else None,
                )
            if a.ndim == 1:
                a2 = a[None, :]
            else:
                a2 = a
            if b.ndim == 1:
                b2 = b[:, None]
            else:
                b2 = b
            grad2 = grad
            if a.ndim == 1 and b.ndim >= 2:
                grad2 = grad[..., None, :]
            if b.ndim == 1 and a.ndim >= 2:
                grad2 = grad[..., :, None]
            ga = gb = None
            if self.requires_grad:
                ga = grad2 @ np.swapaxes(b2, -1, -2)
                if a.ndim == 1:
                    ga = ga.reshape(-1, a.shape[0]).sum(axis=0) if ga.ndim > 1 else ga
                ga = _unbroadcast(np.asarray(ga), self.shape)
            if other.requires_grad:
                gb = np.swapaxes(a2, -1, -2) @ grad2
                if b.ndim == 1:
                    gb = gb.reshape(b.shape[0], -1).sum(axis=-1) if gb.ndim > 1 else gb
                gb = _unbroadcast(np.asarray(gb), other.shape)
            return (ga, gb)

        return self._make(data, (self, other), backward)

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad):
            return (grad.reshape(original),)

        return self._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad):
            return (grad.transpose(inverse),)

        return self._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        shape = self.shape
        dtype = self.data.dtype

        def backward(grad):
            full = np.zeros(shape, dtype=dtype)
            np.add.at(full, index, grad)
            return (full,)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(grad):
            g = np.asarray(grad)
            if axis is None:
                return (np.broadcast_to(g, shape).astype(self.data.dtype),)
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(a % len(shape) for a in axes)
            if not keepdims:
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            return (np.broadcast_to(g, shape).astype(self.data.dtype),)

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        mask_source = self.data

        def backward(grad):
            g = np.asarray(grad)
            expanded = data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
                    expanded = np.expand_dims(expanded, a)
            mask = (mask_source == expanded).astype(self.data.dtype)
            # Distribute gradient equally among ties.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return (mask * g / counts,)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad):
            return (grad * data,)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad):
            return (grad / self.data,)

        return self._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad):
            return (grad * 0.5 / np.maximum(data, 1e-300),)

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - data**2),)

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # numerically stable logistic: never exponentiates a large positive value
        clipped = np.clip(self.data, -60.0, 60.0)
        data = np.where(clipped >= 0, 1.0 / (1.0 + np.exp(-clipped)), np.exp(clipped) / (1.0 + np.exp(clipped)))

        def backward(grad):
            return (grad * data * (1.0 - data),)

        return self._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad):
            return (grad * (self.data > 0),)

        return self._make(data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        slope = float(negative_slope)
        data = np.where(self.data > 0, self.data, slope * self.data)

        def backward(grad):
            return (grad * np.where(self.data > 0, 1.0, slope),)

        return self._make(data, (self,), backward)

    def selu(self) -> "Tensor":
        """Scaled exponential linear unit (Klambauer et al. 2017)."""
        alpha = 1.6732632423543772
        scale = 1.0507009873554805
        exp_term = alpha * (np.exp(np.minimum(self.data, 0.0)) - 1.0)
        data = scale * np.where(self.data > 0, self.data, exp_term)

        def backward(grad):
            deriv = scale * np.where(self.data > 0, 1.0, exp_term + alpha)
            return (grad * deriv,)

        return self._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)

        def backward(grad):
            inside = (self.data >= low) & (self.data <= high)
            return (grad * inside,)

        return self._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad):
            return (grad * np.sign(self.data),)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Structural ops
    # ------------------------------------------------------------------ #
    @staticmethod
    def cat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._promote(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]

        def backward(grad):
            splits = np.cumsum(sizes)[:-1]
            return tuple(np.split(grad, splits, axis=axis))

        out = tensors[0]._make(data, tuple(tensors), backward)
        return out

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._promote(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad):
            return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

        return tensors[0]._make(data, tuple(tensors), backward)

    def pad(self, pad_width: Sequence[tuple[int, int]]) -> "Tensor":
        pad_width = tuple((int(a), int(b)) for a, b in pad_width)
        data = np.pad(self.data, pad_width)
        slices = tuple(slice(a, dim + a) for (a, _b), dim in zip(pad_width, self.shape))

        def backward(grad):
            return (grad[slices],)

        return self._make(data, (self,), backward)
