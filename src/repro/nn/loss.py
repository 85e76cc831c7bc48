"""Loss functions. The paper's models are all trained with MSE on pK values."""

from __future__ import annotations

from repro.nn.tensor import Tensor


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between predictions and targets."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target
    return (diff * diff).mean()

