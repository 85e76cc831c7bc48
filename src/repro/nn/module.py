"""Module / Parameter abstractions mirroring the ``torch.nn`` programming model."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` registered as a trainable parameter of a module."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural-network modules.

    Sub-classes register :class:`Parameter`, buffers (plain arrays such as
    batch-norm running statistics) and child modules simply by assigning
    them as attributes; ``parameters()``, ``state_dict()`` and
    ``load_state_dict()`` then traverse the hierarchy, which is what the
    checkpointing, Horovod-style broadcast and PB2 exploit/explore steps
    rely on.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -------------------------------------------------------------- #
    # Attribute registration
    # -------------------------------------------------------------- #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array saved with the state dict."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # -------------------------------------------------------------- #
    # Traversal
    # -------------------------------------------------------------- #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs for this module and children."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix + child_name + ".")

    def parameters(self) -> list[Parameter]:
        """Flat list of all parameters."""
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(name, buffer)`` pairs for this module and children."""
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix + child_name + ".")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # -------------------------------------------------------------- #
    # Training / evaluation mode
    # -------------------------------------------------------------- #
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout / batch norm)."""
        for module in self.modules():
            object.__setattr__(module, "training", bool(mode))
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # -------------------------------------------------------------- #
    # State (de)serialization
    # -------------------------------------------------------------- #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat mapping of parameter/buffer names to array copies."""
        state: dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state["buffer:" + name] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Load arrays produced by :meth:`state_dict` into this module."""
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        missing, unexpected = [], []
        for name, value in state.items():
            if name.startswith("buffer:"):
                bname = name[len("buffer:"):]
                if bname in buffers:
                    buffers[bname][...] = value
                else:
                    unexpected.append(name)
            elif name in params:
                if params[name].shape != np.asarray(value).shape:
                    raise ValueError(
                        f"shape mismatch for parameter '{name}': "
                        f"{params[name].shape} vs {np.asarray(value).shape}"
                    )
                params[name].data[...] = value
            else:
                unexpected.append(name)
        for name in params:
            if name not in state:
                missing.append(name)
        if strict and (missing or unexpected):
            raise KeyError(f"state dict mismatch: missing={missing}, unexpected={unexpected}")

    # -------------------------------------------------------------- #
    # Forward
    # -------------------------------------------------------------- #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
