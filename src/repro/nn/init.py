"""Weight initialization schemes."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Glorot/Xavier uniform initialization.

    ``fan_in`` / ``fan_out`` are computed from the first two axes with any
    remaining axes treated as the receptive field, matching the PyTorch
    convention for convolution kernels.
    """
    rng = ensure_rng(rng)
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator | int | None = None, a: float = np.sqrt(5.0)) -> np.ndarray:
    """He/Kaiming uniform initialization (PyTorch's Linear/Conv default)."""
    rng = ensure_rng(rng)
    fan_in, _ = _fans(shape)
    gain = np.sqrt(2.0 / (1.0 + a * a))
    bound = gain * np.sqrt(3.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initialization (biases)."""
    return np.zeros(shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_out = shape[0] * receptive
    fan_in = shape[1] * receptive
    return fan_in, fan_out
