"""Optimizer tests: convergence on convex problems and config validation."""

import numpy as np
import pytest

from repro.errors import ReproError
from tests.nn.oracle import Adam, SGD, Tensor


def quadratic_loss(param: Tensor) -> Tensor:
    """(p - 3)^2 summed; unique minimum at p == 3."""
    diff = param - 3.0
    return (diff * diff).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.allclose(p.data, 3.0, atol=1e-3)

    def test_momentum_converges(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = SGD([p], lr=0.05, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.allclose(p.data, 3.0, atol=1e-2)

    def test_skips_params_without_grad(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = SGD([p], lr=0.1)
        opt.step()  # no backward happened; must not crash or move p
        assert np.allclose(p.data, 1.0)

    def test_invalid_lr(self):
        p = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ReproError):
            SGD([p], lr=0.0)

    def test_invalid_momentum(self):
        p = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ReproError):
            SGD([p], lr=0.1, momentum=1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.allclose(p.data, 3.0, atol=1e-2)

    def test_first_step_magnitude_is_lr(self):
        # With bias correction, Adam's first step is ~lr regardless of
        # gradient scale — the signature property of the update rule.
        p = Tensor(np.array([1000.0]), requires_grad=True)
        opt = Adam([p], lr=0.01)
        opt.zero_grad()
        (p * p).sum().backward()
        opt.step()
        assert abs(p.data[0] - 1000.0) == pytest.approx(0.01, rel=1e-3)

    def test_weight_decay_shrinks(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        for _ in range(300):
            opt.zero_grad()
            (p * 0.0).sum().backward()  # zero data gradient
            opt.step()
        assert abs(p.data[0]) < 1.0

    def test_invalid_betas(self):
        p = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ReproError):
            Adam([p], betas=(1.0, 0.999))

    def test_empty_params_rejected(self):
        with pytest.raises(ReproError):
            Adam([])

    def test_param_without_requires_grad_rejected(self):
        with pytest.raises(ReproError):
            Adam([Tensor(np.ones(1))])
