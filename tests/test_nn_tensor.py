"""Autograd correctness tests: every operation is checked against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.tensor import Tensor, is_grad_enabled, no_grad


def numerical_gradient(fn, value, eps=1e-6):
    """Central finite-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(value)
    flat = value.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn(value)
        flat[i] = original - eps
        down = fn(value)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def check_gradient(op, shape, seed=0, tol=1e-5, positive=False):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    if positive:
        data = np.abs(data) + 0.5
    x = Tensor(data.copy(), requires_grad=True)
    out = op(x)
    loss = out.sum() if out.size > 1 else out
    loss.backward()
    numeric = numerical_gradient(lambda arr: float(op(Tensor(arr)).sum().data), data.copy())
    np.testing.assert_allclose(x.grad, numeric, atol=tol, rtol=1e-4)


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "name,op,positive",
        [
            ("exp", lambda x: x.exp(), False),
            ("log", lambda x: x.log(), True),
            ("sqrt", lambda x: x.sqrt(), True),
            ("tanh", lambda x: x.tanh(), False),
            ("sigmoid", lambda x: x.sigmoid(), False),
            ("relu", lambda x: x.relu(), False),
            ("leaky_relu", lambda x: x.leaky_relu(0.1), False),
            ("selu", lambda x: x.selu(), False),
            ("pow", lambda x: x**3.0, False),
            ("neg", lambda x: -x, False),
        ],
    )
    def test_unary_ops(self, name, op, positive):
        check_gradient(op, (4, 3), positive=positive)

    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = (a * b + b).sum()
        out.backward()
        assert a.grad.shape == (4, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(a.grad, np.broadcast_to(b.data, (4, 3)))
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0) + 4.0)

    def test_division_gradient(self):
        check_gradient(lambda x: x / 2.0 + 1.0 / (x + 3.0), (3, 3))


class TestMatmulAndShapes:
    def test_matmul_gradients(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 5)))

    def test_reshape_transpose_roundtrip(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        y = x.reshape(4, 3).transpose()
        assert y.shape == (3, 4)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_getitem_gradient(self):
        x = Tensor(np.arange(10.0), requires_grad=True)
        x[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_cat_and_stack(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((2, 2), 2.0), requires_grad=True)
        cat = Tensor.cat([a, b], axis=1)
        assert cat.shape == (2, 4)
        cat.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        stacked = Tensor.stack([a, b], axis=0)
        assert stacked.shape == (2, 2, 2)

    def test_pad_gradient(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        padded = x.pad(((1, 1), (0, 2)))
        assert padded.shape == (4, 4)
        padded.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 2)))


class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 1), False)])
    def test_sum_mean(self, axis, keepdims):
        check_gradient(lambda x: x.sum(axis=axis, keepdims=keepdims), (3, 4))
        check_gradient(lambda x: x.mean(axis=axis, keepdims=keepdims), (3, 4))

    def test_max_gradient_goes_to_argmax(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_var(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
        assert abs(x.var().item() - 1.25) < 1e-12


class TestGraphMechanics:
    def test_grad_accumulates_through_shared_node(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        z = y + y  # y used twice
        z.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_no_grad_disables_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_backward_requires_scalar_or_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(1)).backward()

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_chain_rule_random_shapes(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        x = Tensor(rng.normal(size=(n, m)), requires_grad=True)
        out = ((x * 2.0).tanh() + x.sigmoid()).mean()
        out.backward()
        assert x.grad.shape == (n, m)
        assert np.isfinite(x.grad).all()


# (name, op, shape of a, shape of b): broadcasting, 1-D and batched operands
BINARY_CASES = [
    ("matmul", lambda a, b: a @ b, (3, 4), (4, 5)),
    ("matmul-vector-left", lambda a, b: a @ b, (4,), (4, 5)),
    ("matmul-vector-right", lambda a, b: a @ b, (3, 4), (4,)),
    ("matmul-vector-vector", lambda a, b: a @ b, (3,), (3,)),
    ("matmul-batched-broadcast", lambda a, b: a @ b, (2, 3, 4), (4, 5)),
    ("matmul-batched", lambda a, b: a @ b, (2, 3, 4), (2, 4, 5)),
    ("mul", lambda a, b: a * b, (3, 4), (3, 4)),
    ("mul-broadcast", lambda a, b: a * b, (3, 1), (1, 4)),
    ("mul-scalar", lambda a, b: a * b, (3, 4), ()),
    ("div", lambda a, b: a / b, (3, 4), (3, 4)),
    ("div-broadcast", lambda a, b: a / b, (2, 3, 4), (4,)),
    ("div-scalar", lambda a, b: a / b, (), (3, 4)),
]


class TestGradientsOnlyWhereRequired:
    """matmul, * and / build a parent's gradient only if that parent requires grad."""

    @pytest.mark.parametrize("name,op,shape_a,shape_b", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
    @pytest.mark.parametrize("requires", [(True, False), (False, True), (False, False)])
    def test_required_gradients_match_the_all_required_run(self, name, op, shape_a, shape_b, requires):
        rng = np.random.default_rng(5)
        a_data = rng.normal(size=shape_a)
        b_data = np.abs(rng.normal(size=shape_b)) + 0.5  # a safe divisor
        upstream = np.asarray(rng.normal(size=op(Tensor(a_data), Tensor(b_data)).shape))

        def run(req_a, req_b):
            a, b = Tensor(a_data, requires_grad=req_a), Tensor(b_data, requires_grad=req_b)
            return op(a, b), a, b

        full_out, full_a, full_b = run(True, True)
        full_out.backward(upstream)
        out, a, b = run(*requires)
        assert out.data.tobytes() == full_out.data.tobytes()
        if not any(requires):
            assert not out.requires_grad and out._backward is None
            return
        slots = out._backward(upstream)
        out.backward(upstream)
        for tensor, full, slot, required in zip((a, b), (full_a, full_b), slots, requires):
            if required:
                assert tensor.grad.tobytes() == full.grad.tobytes()
            else:
                assert slot is None
                assert tensor.grad is None
