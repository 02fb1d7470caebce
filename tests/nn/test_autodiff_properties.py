"""Property-based gradient checking: engine gradients must agree with
central-difference numerical gradients for randomly composed expressions."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from tests.nn.oracle import Tensor

# Moderate magnitudes keep the numerical differentiation well-conditioned.
elements = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=64)
small_arrays = st.lists(elements, min_size=1, max_size=6).map(
    lambda xs: np.asarray(xs, dtype=np.float64)
)


def numeric_grad(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump.ravel()[i] = eps
        grad.ravel()[i] = (fn(x + bump) - fn(x - bump)) / (2 * eps)
    return grad


def check(fn_tensor, fn_raw, x, atol=2e-4):
    t = Tensor(x, requires_grad=True)
    out = fn_tensor(t)
    out.backward()
    expected = numeric_grad(fn_raw, x)
    assert np.allclose(t.grad, expected, atol=atol), (t.grad, expected)


@settings(max_examples=40, deadline=None)
@given(small_arrays)
def test_sigmoid_chain(x):
    check(
        lambda t: (t.sigmoid() * 3.0).sum(),
        lambda v: float((1 / (1 + np.exp(-v)) * 3.0).sum()),
        x,
    )


@settings(max_examples=40, deadline=None)
@given(small_arrays)
def test_tanh_square(x):
    check(
        lambda t: (t.tanh() * t.tanh()).sum(),
        lambda v: float((np.tanh(v) ** 2).sum()),
        x,
    )


@settings(max_examples=40, deadline=None)
@given(small_arrays)
def test_exp_mean(x):
    check(
        lambda t: t.exp().mean(),
        lambda v: float(np.exp(v).mean()),
        x,
    )


@settings(max_examples=40, deadline=None)
@given(small_arrays)
def test_rational(x):
    check(
        lambda t: (t / (t * t + 2.0)).sum(),
        lambda v: float((v / (v * v + 2.0)).sum()),
        x,
    )


@settings(max_examples=40, deadline=None)
@given(small_arrays, small_arrays)
def test_outer_product_sum(x, y):
    # x (n,1) @ y (1,m) — checks matmul gradients with broadcasting shapes.
    def fn_tensor(t):
        return (t.reshape(t.size, 1) @ Tensor(y.reshape(1, y.size))).sum()

    def fn_raw(v):
        return float((v.reshape(v.size, 1) @ y.reshape(1, y.size)).sum())

    check(fn_tensor, fn_raw, x)


@settings(max_examples=40, deadline=None)
@given(st.lists(elements, min_size=4, max_size=4))
def test_mlp_like_expression(vals):
    """A 2-layer MLP-shaped expression wrt its weight matrix."""
    x = np.asarray(vals, dtype=np.float64).reshape(2, 2)

    w2 = np.array([[0.5], [-0.25]])

    def fn_tensor(t):
        h = (Tensor(np.ones((3, 2))) @ t).relu()
        return (h @ Tensor(w2)).sigmoid().sum()

    def fn_raw(v):
        h = np.maximum(np.ones((3, 2)) @ v, 0.0)
        return float((1 / (1 + np.exp(-(h @ w2)))).sum())

    # ReLU kinks make numerical gradients unreliable near zero: skip
    # inputs whose pre-activation lands within the finite-difference
    # neighbourhood of the kink.
    x = x + 0.1 * np.sign(x) + 0.05
    pre_activation = np.ones((3, 2)) @ x
    assume(np.all(np.abs(pre_activation) > 1e-3))
    check(fn_tensor, fn_raw, x, atol=1e-3)


@settings(max_examples=30, deadline=None)
@given(small_arrays)
def test_grad_linear_in_cotangent(x):
    """backward(2g) accumulates exactly twice backward(g)."""
    t1 = Tensor(x, requires_grad=True)
    y1 = t1 * x  # elementwise, non-scalar output
    y1.backward(np.ones_like(x))
    t2 = Tensor(x, requires_grad=True)
    y2 = t2 * x
    y2.backward(2.0 * np.ones_like(x))
    assert np.allclose(2.0 * t1.grad, t2.grad)
