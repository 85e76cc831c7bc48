"""Tests for conv3d / pooling / batch norm / dropout and their gradients."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def finite_diff(fn, array, eps=1e-6):
    grad = np.zeros_like(array)
    flat = array.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(array)
        flat[i] = orig - eps
        down = fn(array)
        flat[i] = orig
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


class TestConv3d:
    def test_output_shape_with_padding(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 5, 5, 5)))
        w = Tensor(np.random.default_rng(1).normal(size=(4, 3, 3, 3, 3)))
        out = F.conv3d(x, w, padding=1)
        assert out.shape == (2, 4, 5, 5, 5)
        out_valid = F.conv3d(x, w, padding=0)
        assert out_valid.shape == (2, 4, 3, 3, 3)

    def test_matches_manual_convolution(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 1, 4, 4, 4))
        w = rng.normal(size=(1, 1, 3, 3, 3))
        out = F.conv3d(Tensor(x), Tensor(w)).numpy()
        manual = np.zeros((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    manual[i, j, k] = np.sum(x[0, 0, i : i + 3, j : j + 3, k : k + 3] * w[0, 0])
        np.testing.assert_allclose(out[0, 0], manual, atol=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x_data = rng.normal(size=(1, 2, 4, 4, 4))
        w_data = rng.normal(size=(2, 2, 3, 3, 3))
        b_data = rng.normal(size=(2,))
        x, w, b = Tensor(x_data.copy(), requires_grad=True), Tensor(w_data.copy(), requires_grad=True), Tensor(b_data.copy(), requires_grad=True)
        out = F.conv3d(x, w, b, padding=1)
        (out * out).sum().backward()

        def loss_wrt(which):
            def fn(arr):
                xs = {"x": x_data, "w": w_data, "b": b_data}
                xs[which] = arr
                val = F.conv3d(Tensor(xs["x"]), Tensor(xs["w"]), Tensor(xs["b"]), padding=1)
                return float((val * val).sum().data)
            return fn

        np.testing.assert_allclose(w.grad, finite_diff(loss_wrt("w"), w_data.copy()), atol=1e-4, rtol=1e-4)
        np.testing.assert_allclose(b.grad, finite_diff(loss_wrt("b"), b_data.copy()), atol=1e-4, rtol=1e-4)
        np.testing.assert_allclose(x.grad, finite_diff(loss_wrt("x"), x_data.copy()), atol=1e-4, rtol=1e-4)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv3d(Tensor(np.zeros((1, 3, 4, 4, 4))), Tensor(np.zeros((2, 4, 3, 3, 3))))

    def test_kernel_too_large_raises(self):
        with pytest.raises(ValueError):
            F.conv3d(Tensor(np.zeros((1, 1, 2, 2, 2))), Tensor(np.zeros((1, 1, 5, 5, 5))))


class TestPooling:
    def test_max_pool_shape_and_values(self):
        x = np.arange(64.0).reshape(1, 1, 4, 4, 4)
        out = F.max_pool3d(Tensor(x), 2)
        assert out.shape == (1, 1, 2, 2, 2)
        assert out.numpy().max() == 63.0

    def test_max_pool_gradient_routes_to_max(self):
        x = Tensor(np.arange(8.0).reshape(1, 1, 2, 2, 2), requires_grad=True)
        F.max_pool3d(x, 2).sum().backward()
        expected = np.zeros((1, 1, 2, 2, 2))
        expected[0, 0, 1, 1, 1] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_pool_window_too_large(self):
        with pytest.raises(ValueError):
            F.max_pool3d(Tensor(np.zeros((1, 1, 1, 1, 1))), 2)


class TestNormalizationAndDropout:
    def test_batch_norm_normalizes_training_batch(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(64, 4)))
        gamma, beta = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
        running_mean, running_var = np.zeros(4), np.ones(4)
        out = F.batch_norm(x, gamma, beta, running_mean, running_var, training=True)
        np.testing.assert_allclose(out.numpy().mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.numpy().std(axis=0), 1.0, atol=1e-2)
        assert np.all(running_mean != 0.0)

    def test_batch_norm_eval_uses_running_stats(self):
        x = Tensor(np.full((8, 2), 4.0))
        out = F.batch_norm(
            x, Tensor(np.ones(2)), Tensor(np.zeros(2)), np.full(2, 4.0), np.ones(2), training=False
        )
        np.testing.assert_allclose(out.numpy(), 0.0, atol=1e-5)

    def test_dropout_statistics_and_eval_identity(self):
        rng = np.random.default_rng(6)
        x = Tensor(np.ones((200, 50)))
        dropped = F.dropout(x, 0.4, training=True, rng=rng)
        keep_fraction = np.mean(dropped.numpy() != 0.0)
        assert abs(keep_fraction - 0.6) < 0.05
        # inverted dropout preserves expectation
        assert abs(dropped.numpy().mean() - 1.0) < 0.05
        same = F.dropout(x, 0.4, training=False)
        assert same is x

    def test_dropout_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)

    def test_flatten(self):
        x = Tensor(np.zeros((2, 3, 4, 5)))
        assert F.flatten(x).shape == (2, 60)
