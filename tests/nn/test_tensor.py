"""Unit tests for the autodiff engine's forward values and gradients."""

import numpy as np
import pytest

from repro.errors import ReproError
from tests.nn.oracle import Tensor, concat, maximum, stack_rows


def grad_of(fn, x: np.ndarray) -> np.ndarray:
    """Analytic gradient of scalar-valued fn at x via the engine."""
    t = Tensor(x, requires_grad=True)
    out = fn(t)
    out.backward()
    return t.grad


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn over a raw array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.astype(np.float64).ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = eps
        hi = fn(Tensor((flat + bump).reshape(x.shape))).item()
        lo = fn(Tensor((flat - bump).reshape(x.shape))).item()
        grad.ravel()[i] = (hi - lo) / (2 * eps)
    return grad


class TestForward:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        assert np.allclose(out.numpy(), [4.0, 6.0])

    def test_scalar_broadcast(self):
        out = Tensor([1.0, 2.0]) + 1.0
        assert np.allclose(out.numpy(), [2.0, 3.0])

    def test_matmul(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        assert np.allclose((a @ b).numpy(), [[11.0]])

    def test_batched_matmul(self):
        a = Tensor(np.ones((2, 3, 4)))
        b = Tensor(np.ones((4, 5)))
        assert (a @ b).shape == (2, 3, 5)

    def test_relu(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        assert np.allclose(out.numpy(), [0.0, 0.0, 2.0])

    def test_sigmoid_range(self):
        out = Tensor([-100.0, 0.0, 100.0]).sigmoid().numpy()
        assert np.all((out >= 0) & (out <= 1))
        assert out[1] == pytest.approx(0.5)

    def test_sigmoid_extreme_no_overflow(self):
        out = Tensor([1e4, -1e4]).sigmoid().numpy()
        assert np.isfinite(out).all()

    def test_mean_axis(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(t.mean(axis=0).numpy(), [2.0, 3.0])
        assert np.allclose(t.mean(axis=1).numpy(), [1.5, 3.5])
        assert t.mean().item() == pytest.approx(2.5)

    def test_concat(self):
        out = concat([Tensor([[1.0]]), Tensor([[2.0]])], axis=1)
        assert np.allclose(out.numpy(), [[1.0, 2.0]])

    def test_maximum(self):
        out = maximum(Tensor([1.0, 5.0]), Tensor([3.0, 2.0]))
        assert np.allclose(out.numpy(), [3.0, 5.0])

    def test_clip(self):
        out = Tensor([-1.0, 0.5, 2.0]).clip(0.0, 1.0)
        assert np.allclose(out.numpy(), [0.0, 0.5, 1.0])

    def test_stack_rows(self):
        out = stack_rows([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])])
        assert out.shape == (2, 2)

    def test_reshape_transpose(self):
        t = Tensor(np.arange(6.0))
        assert t.reshape(2, 3).shape == (2, 3)
        assert t.reshape(2, 3).transpose().shape == (3, 2)


class TestBackwardExact:
    """Closed-form gradient checks for individual ops."""

    def test_add_grad(self):
        x = np.array([1.0, 2.0])
        g = grad_of(lambda t: (t + t).sum(), x)
        assert np.allclose(g, [2.0, 2.0])

    def test_mul_grad(self):
        x = np.array([3.0])
        g = grad_of(lambda t: (t * t).sum(), x)
        assert np.allclose(g, [6.0])

    def test_div_grad(self):
        x = np.array([2.0])
        g = grad_of(lambda t: (1.0 / t).sum(), x)
        assert np.allclose(g, [-0.25])

    def test_pow_grad(self):
        x = np.array([3.0])
        g = grad_of(lambda t: (t**2).sum(), x)
        assert np.allclose(g, [6.0])

    def test_exp_log_inverse_grad(self):
        x = np.array([1.3])
        g = grad_of(lambda t: t.exp().log().sum(), x)
        assert np.allclose(g, [1.0])

    def test_relu_grad_zero_below(self):
        x = np.array([-2.0, 3.0])
        g = grad_of(lambda t: t.relu().sum(), x)
        assert np.allclose(g, [0.0, 1.0])

    def test_abs_grad(self):
        x = np.array([-2.0, 3.0])
        g = grad_of(lambda t: t.abs().sum(), x)
        assert np.allclose(g, [-1.0, 1.0])

    def test_broadcast_grad_sums(self):
        # (2,3) + (3,) : the (3,) gradient must sum over the batch axis.
        b = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((2, 3)))
        (x + b).sum().backward()
        assert np.allclose(b.grad, [2.0, 2.0, 2.0])

    def test_matmul_grad(self):
        w = Tensor(np.array([[1.0], [2.0]]), requires_grad=True)
        x = Tensor(np.array([[3.0, 4.0]]))
        (x @ w).sum().backward()
        assert np.allclose(w.grad, [[3.0], [4.0]])

    def test_gradient_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.sum().backward()
        assert np.allclose(x.grad, [7.0])

    def test_maximum_grad_routes_to_larger(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 2.0]), requires_grad=True)
        maximum(a, b).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0])
        assert np.allclose(b.grad, [1.0, 0.0])

    def test_clip_grad_zero_outside(self):
        x = np.array([-1.0, 0.5, 2.0])
        g = grad_of(lambda t: t.clip(0.0, 1.0).sum(), x)
        assert np.allclose(g, [0.0, 1.0, 0.0])


class TestBackwardNumeric:
    """Spot checks against central differences for composite expressions."""

    @pytest.mark.parametrize(
        "fn",
        [
            lambda t: (t.sigmoid() * t).sum(),
            lambda t: t.tanh().mean(),
            lambda t: ((t * t).relu() + t.exp()).sum(),
            lambda t: (t.reshape(4, 1) @ Tensor(np.ones((1, 3)))).sum(),
            lambda t: (t / (t * t + 1.0)).sum(),
        ],
    )
    def test_composite(self, fn):
        x = np.array([0.3, -0.7, 1.2, 0.05])
        assert np.allclose(grad_of(fn, x), numeric_grad(fn, x), atol=1e-5)

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([0.5]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y * 1.0001
        y.sum().backward()
        assert x.grad is not None


class TestErrors:
    def test_backward_without_grad_raises(self):
        with pytest.raises(ReproError):
            Tensor([1.0]).backward()

    def test_bad_grad_shape_raises(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ReproError):
            t.backward(np.ones(3))

    def test_tensor_exponent_rejected(self):
        with pytest.raises(ReproError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_empty_concat_rejected(self):
        with pytest.raises(ReproError):
            concat([])

    def test_transpose_requires_2d(self):
        with pytest.raises(ReproError):
            Tensor([1.0]).transpose()
