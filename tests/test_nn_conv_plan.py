"""``conv3d``'s explicit GEMM plan against the ``einsum`` oracle.

The production kernel runs forward and backward as fixed ``matmul``
calls over a C-order patch matrix; ``nn_oracle.reference_conv3d`` is the
``np.einsum`` formulation it replaced. Output and every gradient must be
byte-equal (``tobytes``) on the kernel level and through the Coherent
Fusion model, and no ``einsum`` may run inside the kernel. An input that
requires no grad gets none built.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nn_oracle import reference_conv3d
from repro.featurize.pipeline import collate_complexes
from repro.nn import functional as F
from repro.nn.tensor import Tensor


def conv_case(seed, n, c, f, size, k, padding, bias):
    """Sparse input (with +0.0 and -0.0), kernels, bias and an upstream gradient."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, size, size, size))
    x[rng.random(x.shape) < 0.6] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    w = rng.standard_normal((f, c, k, k, k))
    b = rng.standard_normal(f) if bias else None
    out = size + 2 * padding - k + 1
    grad = rng.standard_normal((n, f, out, out, out))
    grad[rng.random(grad.shape) < 0.3] = -0.0
    return x, w, b, grad


def run_conv(conv, x, w, b, padding, grad):
    """Output, grad_x, grad_w and (with a bias) grad_b of one conv call."""
    xt = Tensor(x.copy(), requires_grad=True)
    wt = Tensor(w.copy(), requires_grad=True)
    bt = Tensor(b.copy(), requires_grad=True) if b is not None else None
    out = conv(xt, wt, bt, padding=padding)
    out.backward(grad)
    return [out.data, xt.grad, wt.grad] + ([bt.grad] if bt is not None else [])


def assert_matches_oracle(x, w, b, padding, grad):
    got = run_conv(F.conv3d, x, w, b, padding, grad)
    want = run_conv(reference_conv3d, x, w, b, padding, grad)
    c = w.shape[1]
    k = w[0].size
    m = grad[:, 0].size
    for name, a, r in zip(("out", "grad_x", "grad_w", "grad_b"), got, want):
        assert a.shape == r.shape, name
        degenerate = k == 1 or m == 1 or (name == "grad_x" and c == 1)
        if not degenerate:
            assert a.tobytes() == r.tobytes(), f"{name} differs from the einsum oracle"
        else:
            # A size-1 extent in one of the products (K or M, or the input
            # channels C of the grad_x product) makes einsum drop that axis
            # and contract in another orientation, so only the summation
            # order differs. No conv layer in the repo's models has one.
            np.testing.assert_allclose(a, r, rtol=1e-12, atol=1e-12, err_msg=name)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=5),
    c=st.integers(min_value=1, max_value=16),
    f=st.integers(min_value=1, max_value=16),
    size=st.integers(min_value=3, max_value=8),
    k=st.sampled_from((3, 5)),
    padding=st.integers(min_value=0, max_value=2),
    bias=st.booleans(),
)
def test_kernel_matches_oracle(seed, n, c, f, size, k, padding, bias):
    size = max(size, k - 2 * padding)
    x, w, b, grad = conv_case(seed, n, c, f, size, k, padding, bias)
    assert_matches_oracle(x, w, b, padding, grad)


@pytest.mark.parametrize(
    "n, c, f, size, k, padding",
    [
        (1, 8, 8, 12, 3, 1),  # tiny model conv1 at batch 1: the einsum N = 1 reduction plan
        (2, 8, 8, 12, 3, 1),
        (1, 8, 16, 6, 1, 0),  # a 1x1x1 projection kernel, as in the residual 3D-CNN
        (5, 16, 16, 5, 5, 2),  # under one-thread BLAS a contiguous grad_x left operand changes these bits
        (1, 1, 4, 6, 3, 1),  # one input channel: degenerate grad_x product
        (1, 1, 1, 3, 3, 0),  # one output voxel: degenerate patch extent M = 1
        (1, 4, 3, 5, 5, 0),  # one output voxel, several channels
    ],
)
@pytest.mark.parametrize("bias", [False, True])
def test_fixed_shapes_match_oracle(n, c, f, size, k, padding, bias):
    x, w, b, grad = conv_case(7, n, c, f, size, k, padding, bias)
    assert_matches_oracle(x, w, b, padding, grad)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    c=st.integers(min_value=1, max_value=12),
    f=st.integers(min_value=1, max_value=12),
    size=st.integers(min_value=3, max_value=8),
    k=st.sampled_from((3, 5)),
    padding=st.integers(min_value=0, max_value=2),
    bias=st.booleans(),
)
def test_constant_input_gets_no_gradient(seed, n, c, f, size, k, padding, bias):
    """An input that requires no grad (conv1's voxel grid) gets ``None``
    from backward, and the weight and bias gradients keep their bits."""
    size = max(size, k - 2 * padding)
    x, w, b, grad = conv_case(seed, n, c, f, size, k, padding, bias)

    def run(conv):
        xt = Tensor(x.copy())
        wt = Tensor(w.copy(), requires_grad=True)
        bt = Tensor(b.copy(), requires_grad=True) if b is not None else None
        out = conv(xt, wt, bt, padding=padding)
        slots = out._backward(grad)
        out.backward(grad)
        assert xt.grad is None
        return slots, [wt.grad] + ([bt.grad] if bt is not None else [])

    slots, got = run(F.conv3d)
    _, want = run(reference_conv3d)
    assert slots[0] is None
    m = grad[:, 0].size
    for name, a, r in zip(("grad_w", "grad_b"), got, want):
        if m > 1:
            assert a.tobytes() == r.tobytes(), f"{name} differs from the einsum oracle"
        else:  # one output voxel: einsum contracts in another orientation
            np.testing.assert_allclose(a, r, rtol=1e-12, atol=1e-12, err_msg=name)


def model_scores_and_grads(model, samples, layout):
    """Inference scores, then parameter gradients of one training-mode backward."""
    model = copy.deepcopy(model)
    batch = collate_complexes(samples, graph_layout=layout)
    scores = model.predict_batch(batch)
    model.train()
    model.zero_grad()
    model(batch).sum().backward()
    grads = {name: p.grad for name, p in model.named_parameters() if p.grad is not None}
    return scores, grads


@pytest.mark.parametrize("layout", ["dense", "flat"])
@pytest.mark.parametrize("batch_size", [1, 2, 3, 8])
def test_coherent_fusion_matches_oracle(workbench, monkeypatch, layout, batch_size):
    samples = workbench.train_samples[:batch_size]
    assert len(samples) == batch_size
    scores, grads = model_scores_and_grads(workbench.coherent_fusion, samples, layout)
    monkeypatch.setattr(F, "conv3d", reference_conv3d)
    want_scores, want_grads = model_scores_and_grads(workbench.coherent_fusion, samples, layout)

    assert scores.tobytes() == want_scores.tobytes()
    assert grads.keys() == want_grads.keys()
    assert any(name.startswith("cnn3d.") for name in grads), "backward never reached the 3D-CNN head"
    for name in grads:
        assert grads[name].tobytes() == want_grads[name].tobytes(), name


def test_kernel_runs_no_einsum(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("conv3d must not call np.einsum")

    x, w, b, grad = conv_case(3, 1, 8, 8, 12, 3, 1, True)
    monkeypatch.setattr(np, "einsum", forbidden)
    got = run_conv(F.conv3d, x, w, b, 1, grad)
    assert [a.shape for a in got] == [grad.shape, x.shape, w.shape, b.shape]
