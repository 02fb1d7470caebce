"""Tests for masked_mean — the set-pooling primitive of MSCN."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from tests.nn.oracle import Tensor, masked_mean


class TestMaskedMean:
    def test_full_mask_equals_plain_mean(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        mask = np.ones((2, 3))
        out = masked_mean(Tensor(x), mask).numpy()
        assert np.allclose(out, x.mean(axis=1))

    def test_partial_mask_ignores_padding(self):
        x = np.zeros((1, 3, 2))
        x[0, 0] = [2.0, 4.0]
        x[0, 1] = [4.0, 8.0]
        x[0, 2] = [999.0, 999.0]  # padded garbage
        mask = np.array([[1.0, 1.0, 0.0]])
        out = masked_mean(Tensor(x), mask).numpy()
        assert np.allclose(out, [[3.0, 6.0]])

    def test_empty_set_yields_zeros(self):
        x = np.full((1, 2, 3), 7.0)
        mask = np.zeros((1, 2))
        out = masked_mean(Tensor(x), mask).numpy()
        assert np.allclose(out, 0.0)

    def test_wrong_rank_raises(self):
        with pytest.raises(ReproError):
            masked_mean(Tensor(np.zeros((2, 3))), np.ones((2, 3)))

    def test_wrong_mask_shape_raises(self):
        with pytest.raises(ReproError):
            masked_mean(Tensor(np.zeros((2, 3, 4))), np.ones((2, 4)))

    def test_gradient_respects_mask(self):
        x = Tensor(np.ones((1, 3, 2)), requires_grad=True)
        mask = np.array([[1.0, 1.0, 0.0]])
        masked_mean(x, mask).sum().backward()
        # Padded element receives zero gradient; valid ones share 1/2 each.
        assert np.allclose(x.grad[0, 2], 0.0)
        assert np.allclose(x.grad[0, 0], 0.5)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=3),
    )
    def test_permutation_invariance(self, batch, set_size, dim):
        """Set semantics: pooling must not care about element order."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch, set_size, dim))
        mask = (rng.random((batch, set_size)) < 0.8).astype(float)
        out1 = masked_mean(Tensor(x), mask).numpy()
        perm = rng.permutation(set_size)
        out2 = masked_mean(Tensor(x[:, perm, :]), mask[:, perm]).numpy()
        assert np.allclose(out1, out2)
