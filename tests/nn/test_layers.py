"""Tests for layers, modules, and the mlp builder."""

import numpy as np
import pytest

from repro.errors import ReproError, SerializationError
from tests.nn.oracle import (
    Dropout,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    Tensor,
    mlp,
)


class TestLinear:
    def test_output_shape_2d(self):
        layer = Linear(4, 3, rng=0)
        assert layer(Tensor(np.zeros((5, 4)))).shape == (5, 3)

    def test_output_shape_3d_set_module(self):
        layer = Linear(4, 3, rng=0)
        assert layer(Tensor(np.zeros((5, 7, 4)))).shape == (5, 7, 3)

    def test_wrong_input_dim_raises(self):
        layer = Linear(4, 3, rng=0)
        with pytest.raises(ReproError):
            layer(Tensor(np.zeros((5, 2))))

    def test_deterministic_init(self):
        a = Linear(4, 3, rng=1)
        b = Linear(4, 3, rng=1)
        assert np.array_equal(a.weight.data, b.weight.data)

    def test_bad_dims_raise(self):
        with pytest.raises(ReproError):
            Linear(0, 3)

    def test_gradients_flow(self):
        layer = Linear(2, 1, rng=0)
        out = layer(Tensor(np.ones((3, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        assert np.allclose(layer.weight.grad, [[3.0], [3.0]])
        assert np.allclose(layer.bias.grad, [3.0])


class TestActivations:
    def test_relu_module(self):
        assert np.allclose(ReLU()(Tensor([-1.0, 2.0])).numpy(), [0.0, 2.0])

    def test_sigmoid_module(self):
        assert Sigmoid()(Tensor([0.0])).numpy()[0] == pytest.approx(0.5)

    def test_tanh_module(self):
        assert Tanh()(Tensor([0.0])).numpy()[0] == pytest.approx(0.0)


class TestDropout:
    def test_identity_in_eval_mode(self):
        d = Dropout(0.9, rng=0)
        d.eval()
        x = np.ones((4, 4))
        assert np.array_equal(d(Tensor(x)).numpy(), x)

    def test_scales_in_train_mode(self):
        d = Dropout(0.5, rng=0)
        out = d(Tensor(np.ones((100, 100)))).numpy()
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)  # inverted dropout scaling
        assert 0.3 < (out > 0).mean() < 0.7

    def test_zero_probability_is_identity(self):
        d = Dropout(0.0)
        x = np.ones((3, 3))
        assert np.array_equal(d(Tensor(x)).numpy(), x)

    def test_invalid_probability(self):
        with pytest.raises(ReproError):
            Dropout(1.0)


class TestSequentialAndMlp:
    def test_sequential_applies_in_order(self):
        net = Sequential(Linear(2, 2, rng=0), ReLU())
        out = net(Tensor(np.ones((1, 2))))
        assert np.all(out.numpy() >= 0)

    def test_empty_sequential_rejected(self):
        with pytest.raises(ReproError):
            Sequential()

    def test_mlp_structure(self):
        net = mlp([4, 8, 1], rng=0, final_activation=Sigmoid)
        out = net(Tensor(np.zeros((2, 4))))
        assert out.shape == (2, 1)
        assert np.all((out.numpy() >= 0) & (out.numpy() <= 1))

    def test_mlp_needs_two_dims(self):
        with pytest.raises(ReproError):
            mlp([4])

    def test_mlp_deterministic(self):
        a = mlp([3, 5, 2], rng=9)
        b = mlp([3, 5, 2], rng=9)
        x = Tensor(np.ones((1, 3)))
        assert np.array_equal(a(x).numpy(), b(x).numpy())


class TestModuleRegistry:
    def test_named_parameters_dotted(self):
        net = Sequential(Linear(2, 3, rng=0), ReLU(), Linear(3, 1, rng=0))
        names = dict(net.named_parameters())
        assert "0.weight" in names
        assert "2.bias" in names

    def test_num_parameters(self):
        net = Linear(4, 3, rng=0)
        assert net.num_parameters() == 4 * 3 + 3

    def test_duplicate_registration_rejected(self):
        m = Module()
        m.register_parameter("w", np.zeros(2))
        with pytest.raises(ReproError):
            m.register_parameter("w", np.zeros(2))

    def test_state_dict_roundtrip(self):
        a = mlp([3, 4, 1], rng=0)
        b = mlp([3, 4, 1], rng=99)
        b.load_state_dict(a.state_dict())
        x = Tensor(np.ones((2, 3)))
        assert np.array_equal(a(x).numpy(), b(x).numpy())

    def test_state_dict_missing_key_rejected(self):
        a = mlp([3, 4, 1], rng=0)
        state = a.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(SerializationError):
            a.load_state_dict(state)

    def test_state_dict_shape_mismatch_rejected(self):
        a = mlp([3, 4, 1], rng=0)
        state = a.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((99, 99))
        with pytest.raises(SerializationError):
            a.load_state_dict(state)

    def test_train_eval_propagates(self):
        net = Sequential(Linear(2, 2, rng=0), Dropout(0.5))
        net.eval()
        assert not net.layers[1].training
        net.train()
        assert net.layers[1].training

    def test_zero_grad_clears(self):
        layer = Linear(2, 1, rng=0)
        layer(Tensor(np.ones((1, 2)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None
