"""The fused optimizer step and the flat gradient clip against their per-parameter oracles.

Every optimizer updates the whole model as one vector operation over its
``ParameterPack``; ``nn_oracle`` keeps the per-parameter ``step()`` loops
and the per-parameter clip they replaced.  The fused path must match them
byte for byte (``tobytes``): the trained weights, validation histories
and goldens of the model zoo rest on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nn_oracle import REFERENCE_OPTIMIZERS, reference_clip_gradients
from repro.models.train import _clip_by_norm
from repro.nn.layers import Linear
from repro.nn.loss import mse_loss
from repro.nn.module import Module
from repro.nn.optim import OPTIMIZERS, ParameterPack
from repro.nn.tensor import Tensor

#: (optimizer name, hyper-parameters): every optimizer, momentum, L2 decay and AdamW's decoupled decay.
CASES = [
    ("sgd", {"lr": 0.05}),
    ("sgd", {"lr": 0.05, "momentum": 0.9}),
    ("sgd", {"lr": 0.05, "momentum": 0.9, "weight_decay": 1e-2}),
    ("adam", {"lr": 0.05}),
    ("adam", {"lr": 0.05, "weight_decay": 1e-2}),
    ("adamw", {"lr": 0.05, "weight_decay": 1e-2}),
    ("rmsprop", {"lr": 0.02}),
    ("adadelta", {"lr": 1.0}),
]


class TwoLayer(Module):
    """Two linear layers; ``unused`` is a parameter no forward pass reaches."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.fc1 = Linear(5, 4, rng=seed)
        self.unused = Linear(3, 2, rng=seed + 1)
        self.fc2 = Linear(4, 1, rng=seed + 2)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).tanh()).reshape(x.shape[0])


def _backward(net: Module, x: np.ndarray, y: np.ndarray) -> None:
    for p in net.parameters():
        p.zero_grad()
    mse_loss(net(Tensor(x)), Tensor(y)).backward()


def _bytes(net: Module) -> list[bytes]:
    return [p.data.tobytes() for p in net.parameters()]


def _reached(net: TwoLayer) -> list:
    return [p for name, p in net.named_parameters() if not name.startswith("unused.")]


@pytest.mark.parametrize("name,kwargs", CASES, ids=[f"{n}-{'-'.join(k)}" for n, k in CASES])
@given(seed=st.integers(0, 2**16), steps=st.integers(1, 6), scale=st.sampled_from([1e-3, 1.0, 1e3]))
@settings(max_examples=15, deadline=None)
def test_step_fused_matches_the_per_parameter_step(name, kwargs, seed, steps, scale):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(8, 5)) * scale
    y = rng.normal(size=8)
    fused_net, reference_net = TwoLayer(seed), TwoLayer(seed)
    fused = OPTIMIZERS[name](_reached(fused_net), **kwargs)
    reference = REFERENCE_OPTIMIZERS[name](_reached(reference_net), **kwargs)
    pack = fused.fuse()
    for _ in range(steps):
        _backward(fused_net, x, y)
        _backward(reference_net, x, y)
        fused.step_fused(pack.grad_vector())
        reference.step()
        assert _bytes(fused_net) == _bytes(reference_net)
    assert fused.step_count == reference.step_count == steps


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_a_parameter_without_gradient_keeps_its_bits(name):
    """``step_fused`` hands a never-reached parameter a zero gradient where ``step()`` skipped it."""
    net = TwoLayer(3)
    before = [p.data.tobytes() for p in net.unused.parameters()]
    reached_before = [p.data.tobytes() for p in net.fc1.parameters()]
    optimizer = OPTIMIZERS[name](net.parameters(), lr=0.05)
    pack = optimizer.fuse()
    rng = np.random.default_rng(0)
    for _ in range(4):
        _backward(net, rng.normal(size=(6, 5)), rng.normal(size=6))
        assert all(p.grad is None for p in net.unused.parameters())
        optimizer.step_fused(pack.grad_vector())
    assert [p.data.tobytes() for p in net.unused.parameters()] == before
    assert all(p.data.tobytes() != b for p, b in zip(net.fc1.parameters(), reached_before))


@given(seed=st.integers(0, 2**16), max_norm=st.sampled_from([1e-3, 0.5, 5.0, 1e6]), drop=st.booleans())
@settings(max_examples=40, deadline=None)
def test_flat_clip_matches_the_per_parameter_clip(seed, max_norm, drop):
    rng = np.random.default_rng(seed)
    net = TwoLayer(seed)
    _backward(net, rng.normal(size=(8, 5)) * 10.0, rng.normal(size=8))
    if drop:  # a reached parameter without a gradient adds nothing to the norm
        net.fc2.bias.grad = None
    pack = ParameterPack(net.parameters())
    flat = _clip_by_norm(pack.grad_vector(), pack.views(pack.grad_vector()), max_norm)
    reference_clip_gradients(net.parameters(), max_norm)
    assert flat.tobytes() == pack.grad_vector().tobytes()


def test_fuse_returns_the_pack_made_at_construction():
    net = TwoLayer(1)
    values = _bytes(net)
    optimizer = OPTIMIZERS["adam"](net.parameters(), lr=0.1)
    pack = optimizer.fuse()
    assert pack is optimizer.fuse()
    assert _bytes(net) == values
    assert all(np.shares_memory(p.data, pack.buffer) for p in net.parameters())


def test_step_fused_rejects_a_gradient_of_the_wrong_size():
    optimizer = OPTIMIZERS["sgd"](TwoLayer(2).parameters(), lr=0.1)
    with pytest.raises(ValueError, match="flat"):
        optimizer.step_fused(np.zeros(optimizer.fuse().size + 1))
    assert optimizer.step_count == 0
