"""Tests for Module mechanics, layers, optimizers and the loss."""

import numpy as np
import pytest

from repro.nn import (
    SELU,
    Adadelta,
    Adam,
    AdamW,
    BatchNorm1d,
    Conv3d,
    Dropout,
    LeakyReLU,
    Linear,
    MaxPool3d,
    Module,
    Parameter,
    ReLU,
    RMSprop,
    SGD,
    Tensor,
    build_optimizer,
    mse_loss,
)
from repro.nn.layers import make_activation


class TinyNet(Module):
    def __init__(self, seed=0):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=seed)
        self.act = ReLU()
        self.fc2 = Linear(8, 1, rng=seed + 1)

    def forward(self, x):
        return self.fc2(self.act(self.fc1(x))).reshape(x.shape[0])


class TestModuleMechanics:
    def test_parameter_registration_and_counting(self):
        net = TinyNet()
        names = dict(net.named_parameters())
        assert set(names) == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}
        assert sum(p.size for p in net.parameters()) == 4 * 8 + 8 + 8 + 1

    def test_state_dict_roundtrip(self):
        net1, net2 = TinyNet(seed=0), TinyNet(seed=42)
        net2.load_state_dict(net1.state_dict())
        for (n1, p1), (_n2, p2) in zip(net1.named_parameters(), net2.named_parameters()):
            np.testing.assert_allclose(p1.data, p2.data, err_msg=n1)

    def test_state_dict_strict_mismatch(self):
        net = TinyNet()
        with pytest.raises(KeyError):
            net.load_state_dict({"bogus": np.zeros(3)})
        with pytest.raises(ValueError):
            net.load_state_dict({**net.state_dict(), "fc1.weight": np.zeros((2, 2))})

    def test_train_eval_mode_propagates(self):
        net = TinyNet()
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad(self):
        net = TinyNet()
        out = net(Tensor(np.ones((2, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestLayers:
    def test_linear_shapes_and_errors(self):
        layer = Linear(6, 2, rng=0)
        assert layer(Tensor(np.ones((5, 6)))).shape == (5, 2)
        with pytest.raises(ValueError):
            Linear(0, 2)

    def test_conv_pool_layers(self):
        conv = Conv3d(2, 3, 3, padding=1, rng=0)
        pool = MaxPool3d(2)
        out = pool(conv(Tensor(np.ones((1, 2, 4, 4, 4)))))
        assert out.shape == (1, 3, 2, 2, 2)

    def test_activation_factory(self):
        assert isinstance(make_activation("relu"), ReLU)
        assert isinstance(make_activation("lrelu"), LeakyReLU)
        assert isinstance(make_activation("SELU"), SELU)
        with pytest.raises(ValueError):
            make_activation("swish")

    def test_batchnorm1d_running_stats_update(self):
        bn = BatchNorm1d(3)
        bn.train()
        bn(Tensor(np.random.default_rng(0).normal(loc=5.0, size=(32, 3))))
        assert np.all(bn.running_mean != 0.0)
        bn.eval()
        before = bn.running_mean.copy()
        bn(Tensor(np.zeros((4, 3))))
        np.testing.assert_allclose(bn.running_mean, before)

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestOptimizers:
    def _losses(self, optimizer_cls, steps=150, **kwargs):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 4))
        true_w = np.array([1.0, -2.0, 0.5, 3.0])
        y = x @ true_w
        net = Linear(4, 1, rng=3)
        optimizer = optimizer_cls(net.parameters(), **kwargs)
        initial = None
        for _ in range(steps):
            pred = net(Tensor(x)).reshape(32)
            loss = mse_loss(pred, Tensor(y))
            if initial is None:
                initial = loss.item()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        return initial, loss.item()

    @pytest.mark.parametrize(
        "cls,kwargs",
        [
            (SGD, {"lr": 0.05, "momentum": 0.9}),
            (Adam, {"lr": 0.05}),
            (AdamW, {"lr": 0.05, "weight_decay": 1e-3}),
            (RMSprop, {"lr": 0.02}),
            (Adadelta, {"lr": 8.0}),
        ],
    )
    def test_optimizers_reduce_loss(self, cls, kwargs):
        initial, final = self._losses(cls, **kwargs)
        # every optimizer must at least halve the loss of this easy linear
        # regression problem; the fast ones essentially solve it
        assert final < 0.5 * initial

    def test_build_optimizer_by_name(self):
        net = TinyNet()
        for name in ("sgd", "adam", "adamw", "rmsprop", "adadelta"):
            assert build_optimizer(name, net.parameters(), lr=0.01) is not None
        with pytest.raises(ValueError):
            build_optimizer("lbfgs", net.parameters(), lr=0.1)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            Adam(net.parameters(), lr=-1.0)

    def test_adam_state_roundtrip(self):
        net = TinyNet()
        opt = Adam(net.parameters(), lr=0.01)
        net(Tensor(np.ones((2, 4)))).sum().backward()
        opt.step()
        state = opt.state_dict()
        opt2 = Adam(net.parameters(), lr=0.01)
        opt2.load_state_dict(state)
        assert opt2.step_count == 1


class TestLoss:
    def test_mse(self):
        pred = Tensor(np.array([1.0, 2.0, 3.0]))
        target = np.array([1.0, 1.0, 5.0])
        assert abs(mse_loss(pred, Tensor(target)).item() - (0 + 1 + 4) / 3) < 1e-12
