"""The gradients against finite differences.

The autograd README idiom — ``grad(f)(x)`` beside
``(f(x + h) - f(x - h)) / 2h`` — applied to each op of the oracle's
``tensor.py``, to ``masked_mean``, to the losses, and to one full MSCN
step both on the oracle graph and through the hand-derived
``TrainingSession``.  At a kink (``clip`` edges, ``maximum`` ties,
``relu``/``abs`` at zero) the central difference is not the derivative,
so there the engine's choice must lie between the two one-sided
differences.

Also here, because they gate the same numerics: the per-sample batched
weight gradient ``Tensor._batched_matmul`` used to compute, kept as the
reference the single-GEMM form must reproduce, and compiled
``InferenceSession`` == oracle forward on generated ragged batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batches import collate
from repro.core.featurization import QueryFeatures
from repro.core.mscn import MSCN
from repro.nn import InferenceSession, TrainingSession
from tests.nn.oracle import (
    MSELoss,
    OracleMSCN,
    QErrorLoss,
    Tensor,
    concat,
    masked_mean,
    maximum,
    oracle_forward,
    packed,
    stack_rows,
)

H = 1e-6


def weighted(fn, arrays, cotangent) -> Tensor:
    """``fn`` reduced to a scalar with fixed weights, so every output
    element's gradient is exercised with a distinct coefficient."""
    return (fn(*arrays) * Tensor(cotangent)).sum()


def prepare(fn, arrays):
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    shape = fn(*map(Tensor, arrays)).shape
    return arrays, np.random.default_rng(0).uniform(0.5, 1.5, size=shape)


def differences(fn, arrays, which, cotangent, step=None):
    """d fn / d arrays[which] by differencing: central with ``step=None``,
    one-sided toward ``step`` (+H or -H) otherwise."""
    target = arrays[which]
    grad = np.zeros_like(target)

    def value(index, delta):
        kept = target.flat[index]
        target.flat[index] = kept + delta
        try:
            return weighted(fn, map(Tensor, arrays), cotangent).item()
        finally:
            target.flat[index] = kept

    if step is None:
        for index in range(target.size):
            grad.flat[index] = (value(index, H) - value(index, -H)) / (2 * H)
    else:
        base = value(0, 0.0)
        for index in range(target.size):
            grad.flat[index] = (value(index, step) - base) / step
    return grad


def engine_grads(fn, arrays, cotangent):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    weighted(fn, tensors, cotangent).backward()
    return [t.grad for t in tensors]


def gradcheck(fn, *arrays, rtol=1e-6, atol=1e-7):
    """Engine gradient of every input == central finite difference."""
    arrays, cotangent = prepare(fn, arrays)
    got = engine_grads(fn, arrays, cotangent)
    for which, array in enumerate(arrays):
        assert got[which].shape == array.shape
        expected = differences(fn, arrays, which, cotangent)
        np.testing.assert_allclose(got[which], expected, rtol=rtol, atol=atol)


def subgradient_check(fn, *arrays, tol=1e-6):
    """At a kink: the engine's gradient lies between the one-sided
    differences (any such value is a valid subgradient)."""
    arrays, cotangent = prepare(fn, arrays)
    got = engine_grads(fn, arrays, cotangent)
    for which in range(len(arrays)):
        right = differences(fn, arrays, which, cotangent, +H)
        left = differences(fn, arrays, which, cotangent, -H)
        assert np.all(got[which] >= np.minimum(left, right) - tol)
        assert np.all(got[which] <= np.maximum(left, right) + tol)


def arr(*shape, seed=0, low=-1.5, high=1.5):
    return np.random.default_rng(seed).uniform(low, high, size=shape)


# ----------------------------------------------------------------------
# every op in the oracle's tensor.py
# ----------------------------------------------------------------------

SMOOTH_OPS = {
    "add": (lambda a, b: a + b, [arr(3, 4), arr(3, 4, seed=1)]),
    "add_broadcast_row": (lambda a, b: a + b, [arr(2, 3, 4), arr(4, seed=1)]),
    "add_broadcast_keepdim": (lambda a, b: a + b, [arr(3, 4), arr(3, 1, seed=1)]),
    "radd_scalar": (lambda a: 2.5 + a, [arr(3)]),
    "neg": (lambda a: -a, [arr(3, 2)]),
    "sub": (lambda a, b: a - b, [arr(3, 4), arr(4, seed=1)]),
    "rsub": (lambda a: 1.0 - a, [arr(5)]),
    "mul": (lambda a, b: a * b, [arr(3, 4), arr(3, 4, seed=1)]),
    "mul_broadcast": (lambda a, b: a * b, [arr(2, 3, 4), arr(2, 3, 1, seed=1)]),
    "div": (lambda a, b: a / b, [arr(3, 4), arr(3, 4, seed=1, low=0.5, high=2.0)]),
    "div_broadcast": (lambda a, b: a / b, [arr(3, 4), arr(3, 1, seed=1, low=0.5, high=2.0)]),
    "rdiv": (lambda a: 2.0 / a, [arr(4, low=0.5, high=2.0)]),
    "pow_square": (lambda a: a**2, [arr(4)]),
    "pow_fractional": (lambda a: a**1.5, [arr(4, low=0.5, high=2.0)]),
    "pow_negative": (lambda a: a**-1.0, [arr(4, low=0.5, high=2.0)]),
    "matmul_2d_2d": (lambda a, b: a @ b, [arr(3, 4), arr(4, 2, seed=1)]),
    "matmul_3d_2d": (lambda a, b: a @ b, [arr(3, 2, 4), arr(4, 5, seed=1)]),
    "matmul_4d_2d": (lambda a, b: a @ b, [arr(2, 3, 2, 4), arr(4, 3, seed=1)]),
    "matmul_1d_2d": (lambda a, b: a @ b, [arr(4), arr(4, 3, seed=1)]),
    "matmul_3d_3d": (lambda a, b: a @ b, [arr(3, 2, 4), arr(3, 4, 5, seed=1)]),
    "matmul_3d_3d_broadcast": (lambda a, b: a @ b, [arr(3, 2, 4), arr(1, 4, 5, seed=1)]),
    "matmul_2d_3d": (lambda a, b: a @ b, [arr(2, 4), arr(3, 4, 5, seed=1)]),
    "linear_3d": (lambda x, w, b: x @ w + b, [arr(3, 2, 4), arr(4, 5, seed=1), arr(5, seed=2)]),
    "relu": (lambda a: a.relu(), [arr(3, 4)]),
    "sigmoid": (lambda a: a.sigmoid(), [arr(3, 4, low=-4.0, high=4.0)]),
    "tanh": (lambda a: a.tanh(), [arr(3, 4)]),
    "exp": (lambda a: a.exp(), [arr(3, 4)]),
    "log": (lambda a: a.log(), [arr(3, 4, low=0.5, high=3.0)]),
    "abs": (lambda a: a.abs(), [arr(3, 4)]),
    "clip_interior_and_outside": (lambda a: a.clip(-0.5, 0.5), [arr(4, 5)]),
    "sum_all": (lambda a: a.sum(), [arr(2, 3, 4)]),
    "sum_axis": (lambda a: a.sum(axis=1), [arr(2, 3, 4)]),
    "sum_negative_axis": (lambda a: a.sum(axis=-1), [arr(2, 3, 4)]),
    "sum_axes_tuple": (lambda a: a.sum(axis=(0, 2)), [arr(2, 3, 4)]),
    "sum_keepdims": (lambda a: a.sum(axis=1, keepdims=True), [arr(2, 3, 4)]),
    "mean_all": (lambda a: a.mean(), [arr(2, 3, 4)]),
    "mean_axis": (lambda a: a.mean(axis=0), [arr(2, 3, 4)]),
    "mean_axes_tuple_keepdims": (lambda a: a.mean(axis=(1, 2), keepdims=True), [arr(2, 3, 4)]),
    "reshape": (lambda a: a.reshape(4, 6), [arr(2, 3, 4)]),
    "reshape_tuple": (lambda a: a.reshape((6, 4)), [arr(2, 3, 4)]),
    "transpose": (lambda a: a.transpose(), [arr(3, 4)]),
    "maximum_distinct": (lambda a, b: maximum(a, b), [arr(3, 4), arr(3, 4, seed=1)]),
    "maximum_scalar": (lambda a: a.maximum(0.25), [arr(3, 4)]),
    "concat_last": (lambda a, b: concat([a, b], axis=-1), [arr(3, 2), arr(3, 4, seed=1)]),
    "concat_first": (lambda a, b: concat([a, b], axis=0), [arr(2, 3), arr(4, 3, seed=1)]),
    "concat_middle": (lambda a, b, c: concat([a, b, c], axis=1), [arr(2, 1, 3), arr(2, 2, 3, seed=1), arr(2, 3, 3, seed=2)]),
    "stack_rows": (lambda a, b: stack_rows([a, b]), [arr(4), arr(4, seed=1)]),
    "reused_operand": (lambda a: a * a + a.exp() / (a * a + 1.0), [arr(3, 4)]),
}


@pytest.mark.parametrize("name", sorted(SMOOTH_OPS))
def test_op_matches_central_difference(name):
    fn, arrays = SMOOTH_OPS[name]
    gradcheck(fn, *arrays)


def test_every_tensor_op_has_a_case():
    """A new differentiable op must bring its gradcheck row with it."""
    covered = {
        "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__matmul__",
        "_batched_matmul", "relu", "sigmoid", "tanh", "exp", "log", "abs",
        "clip", "sum", "mean", "reshape", "transpose", "maximum",
    }
    not_differentiable = {
        "__init__", "__repr__", "shape", "ndim", "size", "numpy", "item",
        "detach", "zero_grad", "backward", "_lift", "_accumulate",
    }
    public = {
        name for name, member in vars(Tensor).items()
        if callable(member) or isinstance(member, (property, staticmethod))
    }
    assert public - not_differentiable == covered


KINKS = {
    # clip passes the gradient on its closed interval: 1 at both edges.
    "clip_edges": (lambda a: a.clip(-0.5, 0.5), [np.array([-0.5, 0.5, 0.0, -0.7, 0.7])]),
    "relu_at_zero": (lambda a: a.relu(), [np.array([0.0, -0.3, 0.3])]),
    "abs_at_zero": (lambda a: a.abs(), [np.array([0.0, -0.3, 0.3])]),
    "maximum_ties": (
        lambda a, b: maximum(a, b),
        [np.array([0.4, 1.0, -2.0]), np.array([0.4, 1.0, 3.0])],
    ),
}


@pytest.mark.parametrize("name", sorted(KINKS))
def test_kink_gradient_is_a_subgradient(name):
    fn, arrays = KINKS[name]
    subgradient_check(fn, *arrays)


def test_clip_edges_pass_the_gradient():
    x = Tensor(np.array([-0.5, 0.5, -0.5 - 1e-12, 0.5 + 1e-12]), requires_grad=True)
    x.clip(-0.5, 0.5).sum().backward()
    assert x.grad.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_maximum_ties_route_the_whole_gradient_to_the_left_operand():
    """Moving both operands of a tie together moves the output one for
    one, so the two gradients must sum to the cotangent."""
    a = Tensor(np.array([0.4, 1.0, -2.0]), requires_grad=True)
    b = Tensor(np.array([0.4, 1.0, 3.0]), requires_grad=True)
    cotangent = np.array([2.0, 3.0, 5.0])
    maximum(a, b).backward(cotangent)
    assert a.grad.tolist() == [2.0, 3.0, 0.0]
    assert b.grad.tolist() == [0.0, 0.0, 5.0]
    np.testing.assert_array_equal(a.grad + b.grad, cotangent)


# ----------------------------------------------------------------------
# the single-GEMM weight gradient against the per-sample form it replaced
# ----------------------------------------------------------------------


def per_sample_matmul_grads(x, w, g):
    """What ``_batched_matmul`` computed before: one small GEMM per
    leading index into a ``(..., D, H)`` temporary, then a sum over it."""
    grad_x = np.matmul(g, np.swapaxes(w, -1, -2))
    per_sample = np.matmul(np.swapaxes(x, -1, -2), g)
    grad_w = per_sample.sum(axis=tuple(range(per_sample.ndim - 2)))
    return grad_x, grad_w


@settings(max_examples=60, deadline=None)
@given(
    lead=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    d=st.integers(1, 9),
    h=st.integers(1, 9),
    seed=st.integers(0, 2**31 - 1),
)
def test_weight_gradient_matches_per_sample_reference(lead, d, h, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(*lead, d))
    w = rng.normal(size=(d, h))
    g = rng.normal(size=(*lead, h))
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    (xt @ wt).backward(g)
    ref_x, ref_w = per_sample_matmul_grads(x, w, g)
    for got, ref in ((xt.grad, ref_x), (wt.grad, ref_w)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)


def test_weight_gradient_matches_reference_at_training_shape():
    """The benchmark's table set: 256 queries x 3 tables x 1006 features."""
    rng = np.random.default_rng(0)
    x = (rng.random((256, 3, 1006)) < 0.3).astype(np.float64)
    w = rng.normal(size=(1006, 64)) / 32.0
    g = rng.normal(size=(256, 3, 64)) / 256.0
    wt = Tensor(w, requires_grad=True)
    (Tensor(x) @ wt).backward(g)
    _, ref_w = per_sample_matmul_grads(x, w, g)
    assert np.max(np.abs(wt.grad - ref_w)) <= 1e-12 * np.max(np.abs(ref_w))


# ----------------------------------------------------------------------
# masked_mean and the losses
# ----------------------------------------------------------------------


def test_masked_mean_with_empty_and_partial_sets():
    mask = np.array([[1, 1, 0], [0, 0, 0], [1, 0, 0], [1, 1, 1]], dtype=np.float64)
    x = arr(4, 3, 5)
    gradcheck(lambda t: masked_mean(t, mask), x)
    t = Tensor(x, requires_grad=True)
    out = masked_mean(t, mask)
    out.sum().backward()
    assert not out.numpy()[1].any()  # an empty set averages to zero ...
    assert not t.grad[1].any()  # ... and nothing flows back into it,
    assert not t.grad[0, 2].any()  # nor into a padded element.
    np.testing.assert_allclose(t.grad[0, :2], 0.5)


def test_masked_mean_through_a_set_module():
    """Linear -> ReLU -> masked mean, w.r.t. the shared weight and bias."""
    mask = np.array([[1, 0], [0, 0], [1, 1]], dtype=np.float64)
    x = arr(3, 2, 4)
    gradcheck(
        lambda w, b: masked_mean((Tensor(x) @ w + b).relu(), mask),
        arr(4, 6, seed=1), arr(6, seed=2),
    )


@pytest.mark.parametrize("min_norm", [0.0, 0.1])
def test_qerror_loss(min_norm):
    loss = QErrorLoss(log_max_card=11.5, min_norm=min_norm)
    targets = np.array([0.2, 0.5, 0.9, 0.35, 0.6])
    # Over, under, far under, and two outside the clamp (no gradient).
    preds = np.array([0.3, 0.4, 0.15, 1.2, -0.2])
    gradcheck(lambda p: loss(p, targets), preds, rtol=1e-5)
    p = Tensor(preds, requires_grad=True)
    loss(p, targets).backward()
    assert p.grad[0] > 0 > p.grad[1]
    assert p.grad[3] == 0.0 and p.grad[4] == 0.0


def test_qerror_loss_at_a_perfect_prediction_is_a_subgradient():
    loss = QErrorLoss(log_max_card=7.0)
    targets = np.array([0.25, 0.75])
    subgradient_check(lambda p: loss(p, targets), targets.copy(), tol=1e-5)


def test_mse_loss():
    targets = arr(6, seed=3, low=0.0, high=1.0)
    gradcheck(lambda p: MSELoss()(p, targets), arr(6, low=0.0, high=1.0))


# ----------------------------------------------------------------------
# the whole model on ragged batches
# ----------------------------------------------------------------------

TABLE_DIM, JOIN_DIM, PRED_DIM = 9, 3, 5

set_sizes = st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(0, 4))


def ragged_batch(sizes, seed):
    """Collate one query per ``(tables, joins, predicates)`` triple; a
    zero count is the featurizer's encoding of an empty set — a single
    all-zero row."""
    rng = np.random.default_rng(seed)

    def rows(n, dim):
        return rng.normal(size=(n, dim)) if n else np.zeros((1, dim))

    return collate(
        [
            QueryFeatures(rows(t, TABLE_DIM), rows(j, JOIN_DIM), rows(p, PRED_DIM))
            for t, j, p in sizes
        ]
    )


def test_mscn_training_step_matches_central_difference():
    """d loss / d theta for every parameter of a small MSCN."""
    sizes = [(1, 0, 0), (3, 2, 4), (2, 1, 0), (4, 3, 1), (2, 0, 2)]
    batch = ragged_batch(sizes, seed=5)
    targets = np.array([0.1, 0.8, 0.45, 0.6, 0.3])
    loss_fn = QErrorLoss(log_max_card=9.0)
    model = OracleMSCN(TABLE_DIM, JOIN_DIM, PRED_DIM, hidden_units=6, seed=11)

    model.zero_grad()
    loss_fn(model(batch), targets).backward()
    for name, param in model.named_parameters():
        assert param.grad is not None, name
        expected = np.zeros_like(param.data)
        for index in range(param.data.size):
            kept = param.data.flat[index]
            param.data.flat[index] = kept + H
            up = loss_fn(model(batch), targets).item()
            param.data.flat[index] = kept - H
            down = loss_fn(model(batch), targets).item()
            param.data.flat[index] = kept
            expected.flat[index] = (up - down) / (2 * H)
        np.testing.assert_allclose(param.grad, expected, rtol=1e-5, atol=1e-7, err_msg=name)


# ----------------------------------------------------------------------
# the hand-derived TrainingSession, differenced through its own loss
# ----------------------------------------------------------------------


def session_case(loss, sizes, seed=5):
    batch = ragged_batch(sizes, seed=seed)
    model = MSCN(TABLE_DIM, JOIN_DIM, PRED_DIM, hidden_units=6, seed=11)
    session = TrainingSession(model, loss=loss, log_max_card=9.0, learning_rate=1e-3)
    return model, session, batch


def session_differences(model, session, batch, targets, step=None):
    """d loss / d theta of every parameter by differencing the session's
    loss: central with ``step=None``, one-sided toward ``step`` otherwise."""

    def value(param, index, delta):
        kept = param.flat[index]
        param.flat[index] = kept + delta
        try:
            return session.gradients(packed(batch), targets, np.arange(batch.size))[0]
        finally:
            param.flat[index] = kept

    out = {}
    for name, param in model.params.items():
        grad = out[name] = np.zeros_like(param)
        for index in range(param.size):
            if step is None:
                grad.flat[index] = (value(param, index, H) - value(param, index, -H)) / (2 * H)
            else:
                grad.flat[index] = (value(param, index, step) - value(param, index, 0.0)) / step
    return out


def session_gradients(session, batch, targets):
    _, grads = session.gradients(packed(batch), targets, np.arange(batch.size))
    return {name: grad.copy() for name, grad in grads.items()}


RAGGED = [(1, 0, 0), (3, 2, 4), (2, 1, 0), (4, 3, 1), (2, 0, 2)]


@pytest.mark.parametrize("loss", ["qerror", "mse"])
def test_training_session_matches_central_difference(loss):
    """Every parameter of a small MSCN on ragged sets, through the
    packed forward, the hand-derived backward and both losses."""
    model, session, batch = session_case(loss, RAGGED)
    targets = np.array([0.1, 0.8, 0.45, 0.6, 0.3])
    got = session_gradients(session, batch, targets)
    expected = session_differences(model, session, batch, targets)
    for name in model.params:
        np.testing.assert_allclose(got[name], expected[name], rtol=1e-5, atol=1e-7, err_msg=name)


def test_training_session_with_an_all_empty_set_matches_central_difference():
    """No valid join row anywhere in the batch: the join MLP's packed
    operand is empty and its gradients must be exactly zero."""
    model, session, batch = session_case("qerror", [(2, 1, 3), (1, 2, 1)])
    batch.join_mask[:] = 0.0
    targets = np.array([0.3, 0.6])
    got = session_gradients(session, batch, targets)
    expected = session_differences(model, session, batch, targets)
    for name in model.params:
        np.testing.assert_allclose(got[name], expected[name], rtol=1e-5, atol=1e-7, err_msg=name)
        if name.startswith("join_mlp"):
            assert not got[name].any(), name


def test_training_session_at_a_perfect_prediction_is_a_subgradient():
    """Targets equal to the predictions put every q-error at its kink
    (gap == 0): the gradient lies between the one-sided differences."""
    model, session, batch = session_case("qerror", RAGGED[:3])
    targets = session.predict(packed(batch), np.arange(batch.size))
    got = session_gradients(session, batch, targets)
    right = session_differences(model, session, batch, targets, +H)
    left = session_differences(model, session, batch, targets, -H)
    for name in model.params:
        assert np.all(got[name] >= np.minimum(left[name], right[name]) - 1e-5), name
        assert np.all(got[name] <= np.maximum(left[name], right[name]) + 1e-5), name


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(set_sizes, min_size=1, max_size=12),
    hidden=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
)
def test_inference_session_matches_autograd_forward(sizes, hidden, seed):
    batch = ragged_batch(sizes, seed)
    model = MSCN(TABLE_DIM, JOIN_DIM, PRED_DIM, hidden_units=hidden, seed=seed)
    np.testing.assert_allclose(
        InferenceSession(model).run(batch), oracle_forward(model, batch), rtol=1e-12, atol=0.0
    )
