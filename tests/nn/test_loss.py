"""Loss function tests, including the q-error loss identity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from tests.nn.oracle import MSELoss, QErrorLoss, Tensor


class TestMSE:
    def test_zero_at_perfect_fit(self):
        loss = MSELoss()(Tensor([0.5, 0.2]), np.array([0.5, 0.2]))
        assert loss.item() == pytest.approx(0.0)

    def test_value(self):
        loss = MSELoss()(Tensor([1.0, 0.0]), np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ReproError):
            MSELoss()(Tensor([1.0]), np.array([1.0, 2.0]))

    def test_gradient_direction(self):
        pred = Tensor(np.array([1.0]), requires_grad=True)
        MSELoss()(pred, np.array([0.0])).backward()
        assert pred.grad[0] > 0  # moving down reduces the loss


class TestQErrorLoss:
    def test_perfect_prediction_gives_one(self):
        loss_fn = QErrorLoss(log_max_card=np.log(1000.0))
        loss = loss_fn(Tensor([0.3]), np.array([0.3]))
        assert loss.item() == pytest.approx(1.0)

    def test_equals_cardinality_ratio(self):
        # pred/true normalized gap of d corresponds to a factor exp(d*L).
        span = np.log(10_000.0)
        loss_fn = QErrorLoss(log_max_card=span)
        gap = 0.25
        loss = loss_fn(Tensor([0.5 + gap]), np.array([0.5]))
        assert loss.item() == pytest.approx(np.exp(gap * span), rel=1e-9)

    def test_symmetric_over_and_under(self):
        loss_fn = QErrorLoss(log_max_card=5.0)
        over = loss_fn(Tensor([0.7]), np.array([0.5])).item()
        under = loss_fn(Tensor([0.3]), np.array([0.5])).item()
        assert over == pytest.approx(under)

    def test_invalid_span(self):
        with pytest.raises(ReproError):
            QErrorLoss(log_max_card=0.0)

    def test_gradient_signs(self):
        loss_fn = QErrorLoss(log_max_card=5.0)
        over = Tensor(np.array([0.8]), requires_grad=True)
        loss_fn(over, np.array([0.5])).backward()
        assert over.grad[0] > 0
        under = Tensor(np.array([0.2]), requires_grad=True)
        loss_fn(under, np.array([0.5])).backward()
        assert under.grad[0] < 0

    def test_clamp_prevents_overflow(self):
        # Wild predictions outside [0,1] are clamped before the exp.
        loss_fn = QErrorLoss(log_max_card=50.0)
        loss = loss_fn(Tensor([10.0]), np.array([0.0]))
        assert np.isfinite(loss.item())

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_always_at_least_one(self, pred, target):
        loss_fn = QErrorLoss(log_max_card=8.0)
        loss = loss_fn(Tensor([pred]), np.array([target]))
        assert loss.item() >= 1.0 - 1e-9

    def test_batch_mean(self):
        loss_fn = QErrorLoss(log_max_card=1.0)
        a = loss_fn(Tensor([0.5, 0.5]), np.array([0.5, 0.5])).item()
        assert a == pytest.approx(1.0)
