"""Weight serialization round-trips and failure modes."""

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.nn import state_dict_from_bytes, state_dict_to_bytes
from tests.nn.oracle import Sigmoid, Tensor, load_module, mlp, save_module


class TestBytesRoundtrip:
    def test_state_roundtrip(self):
        net = mlp([3, 8, 1], rng=0)
        blob = state_dict_to_bytes(net.state_dict(), meta={"kind": "test"})
        state, meta = state_dict_from_bytes(blob)
        assert meta == {"kind": "test"}
        for name, value in net.state_dict().items():
            assert np.array_equal(state[name], value)

    def test_loaded_model_predicts_identically(self):
        a = mlp([4, 6, 1], rng=0, final_activation=Sigmoid)
        b = mlp([4, 6, 1], rng=123, final_activation=Sigmoid)
        state, _ = state_dict_from_bytes(state_dict_to_bytes(a.state_dict()))
        b.load_state_dict(state)
        x = Tensor(np.linspace(0, 1, 8).reshape(2, 4))
        assert np.array_equal(a(x).numpy(), b(x).numpy())

    def test_garbage_rejected(self):
        with pytest.raises(SerializationError):
            state_dict_from_bytes(b"not a payload at all")

    def test_missing_header_rejected(self):
        import io

        buffer = io.BytesIO()
        np.savez(buffer, foo=np.ones(3))
        with pytest.raises(SerializationError):
            state_dict_from_bytes(buffer.getvalue())


class TestFileRoundtrip:
    def test_save_load_module(self, tmp_path):
        path = str(tmp_path / "model.npz")
        a = mlp([3, 5, 1], rng=0)
        size = save_module(a, path, meta={"epochs": 3})
        assert size > 0
        b = mlp([3, 5, 1], rng=7)
        meta = load_module(b, path)
        assert meta == {"epochs": 3}
        x = Tensor(np.ones((1, 3)))
        assert np.array_equal(a(x).numpy(), b(x).numpy())

    def test_load_into_wrong_architecture_fails(self, tmp_path):
        path = str(tmp_path / "model.npz")
        save_module(mlp([3, 5, 1], rng=0), path)
        with pytest.raises(SerializationError):
            load_module(mlp([4, 5, 1], rng=0), path)
