"""The hand-derived TrainingSession against the autograd oracle.

As pytorch-sso checks ``manual_jacobian_rev`` against a framework:
every parameter gradient of :class:`~repro.nn.training.TrainingSession`
equals the oracle graph's (``tests/nn/oracle/``) to 1e-12 relative on
hypothesis-drawn batches and on the edge cases named below; ten Adam
steps track the oracle's ``Adam``; and a whole benchmark-config build
trained both ways ends at the same weights.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batches import TrainingSet, batch_indices, collate
from repro.core.featurization import QueryFeatures
from repro.core.mscn import MSCN
from repro.errors import TrainingError
from repro.nn import TrainingSession
from tests.nn.oracle import OracleTrainingSession, packed
from tests.helpers import training_set

TABLE_DIM, JOIN_DIM, PRED_DIM = 9, 3, 5
#: The featurizer encodes an empty join/predicate set as one all-zero
#: row with its mask bit set; a count of 0 below means that encoding.
set_sizes = st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(0, 4))


def features(sizes, seed):
    rng = np.random.default_rng(seed)

    def rows(n, dim):
        return rng.normal(size=(n, dim)) if n else np.zeros((1, dim))

    return [
        QueryFeatures(rows(t, TABLE_DIM), rows(j, JOIN_DIM), rows(p, PRED_DIM))
        for t, j, p in sizes
    ]


def both(loss, hidden=6, seed=11, log_max_card=9.0):
    model = MSCN(TABLE_DIM, JOIN_DIM, PRED_DIM, hidden_units=hidden, seed=seed)
    knobs = dict(loss=loss, log_max_card=log_max_card, learning_rate=1e-3)
    session = TrainingSession(model, **knobs)
    oracle = OracleTrainingSession(
        MSCN(TABLE_DIM, JOIN_DIM, PRED_DIM, hidden_units=hidden, seed=seed), **knobs
    )
    return model, session, oracle


def assert_relative(got: dict, want: dict, bound: float) -> None:
    """Each array of ``got`` within ``bound`` of ``want``'s, relative to
    the largest magnitude of ``want``'s (an all-zero one must match
    exactly)."""
    assert list(got) == list(want)
    for name, ref in want.items():
        err = np.max(np.abs(got[name] - ref))
        assert err <= bound * np.max(np.abs(ref)), (name, err, np.max(np.abs(ref)))


def every(batch):
    """The index of a whole batch, as one minibatch."""
    return np.arange(len(batch.labels) if isinstance(batch, TrainingSet) else batch.size)


def assert_gradients_match(session, oracle, batch, labels, index):
    """The session on the packed rows of ``batch`` (a collated batch or a
    training set), the oracle on them padded."""
    dataset = batch if isinstance(batch, TrainingSet) else packed(batch)
    loss, grads = session.gradients(dataset, labels, index)
    want_loss, want = oracle.gradients(batch, labels, index)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert_relative(grads, want, 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(set_sizes, min_size=1, max_size=12),
    hidden=st.integers(1, 8),
    loss=st.sampled_from(["qerror", "mse"]),
    empty_joins=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_gradients_match_the_oracle(sizes, hidden, loss, empty_joins, seed):
    _, session, oracle = both(loss, hidden=hidden, seed=seed)
    batch = collate(features(sizes, seed))
    if empty_joins:
        batch.join_mask[:] = 0.0
    labels = np.random.default_rng(seed).uniform(0.0, 1.0, size=len(sizes))
    assert_gradients_match(session, oracle, batch, labels, every(batch))


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(set_sizes, min_size=2, max_size=20),
    batch_size=st.integers(1, 7),
    loss=st.sampled_from(["qerror", "mse"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_indexed_minibatches_match_the_oracle(sizes, batch_size, loss, seed):
    """Every shuffled minibatch of a dataset, the last partial one
    included, gathered straight from the packed arrays."""
    _, session, oracle = both(loss, seed=seed)
    dataset = training_set(
        features(sizes, seed), np.random.default_rng(seed).uniform(size=len(sizes))
    )
    for index in batch_indices(every(dataset), batch_size, seed=seed):
        assert_gradients_match(session, oracle, dataset, dataset.labels[index], index)


@pytest.mark.parametrize("loss", ["qerror", "mse"])
@pytest.mark.parametrize(
    "case",
    ["all_empty_join_set", "singleton_sets", "one_query", "last_partial_batch"],
)
def test_edge_cases_match_the_oracle(case, loss):
    _, session, oracle = both(loss)
    sizes = [(2, 1, 3), (1, 0, 2), (3, 2, 0), (1, 1, 1), (4, 3, 4)]
    if case == "singleton_sets":  # S = 1 for every set
        sizes = [(1, 1, 1)] * 4
    elif case == "one_query":  # B = 1
        sizes = sizes[:1]
    batch = collate(features(sizes, seed=3))
    labels, index = np.linspace(0.2, 0.9, len(sizes)), every(batch)
    if case == "all_empty_join_set":
        batch.join_mask[:] = 0.0
    elif case == "last_partial_batch":
        dataset = training_set(
            features(sizes * 2, seed=3), np.linspace(0.1, 0.9, 10)
        )
        index = list(batch_indices(every(dataset), 4, seed=0))[-1]
        assert index.size == 2
        batch, labels = dataset, dataset.labels[index]
    assert_gradients_match(session, oracle, batch, labels, index)


def test_qerror_tie_takes_the_gradient_through_exp_gap():
    """Labels equal to the predictions: gap == 0 and both exponentials
    tie at 1; the oracle's ``maximum`` routes the gradient to exp(gap),
    so the loss gradient is +log_max_card / B, not zero or negative."""
    model, session, oracle = both("qerror")
    batch = collate(features([(2, 1, 3), (1, 0, 2), (3, 2, 1)], seed=4))
    labels = session.predict(packed(batch), every(batch))
    np.testing.assert_array_equal(labels, oracle.predict(batch, every(batch)))
    assert_gradients_match(session, oracle, batch, labels, every(batch))
    _, grad = session._loss_gradient(labels, labels)
    np.testing.assert_array_equal(grad, np.full(3, 9.0 / 3))


def test_sigmoid_output_at_the_clip_edge():
    """A saturated output (sigmoid == 1.0 exactly) sits on the q-error
    clamp's upper edge, where the oracle passes the gradient."""
    model, session, oracle = both("qerror")
    for m in (model, oracle.model, oracle.net):
        state = m.state_dict()
        state["out_mlp.2.bias"] = np.array([50.0])
        m.load_state_dict(state)
    batch = collate(features([(2, 1, 3), (1, 1, 1)], seed=5))
    preds = session.predict(packed(batch), every(batch))
    np.testing.assert_array_equal(preds, [1.0, 1.0])
    assert_gradients_match(session, oracle, batch, np.array([0.4, 0.7]), every(batch))
    _, grad = session._loss_gradient(preds, np.array([0.4, 0.7]))
    assert np.all(grad > 0.0)  # the edge is inside the clamp


@pytest.mark.parametrize("loss", ["qerror", "mse"])
def test_ten_adam_steps_track_the_oracle(loss):
    model, session, oracle = both(loss)
    rng = np.random.default_rng(0)
    for step in range(10):
        sizes = [tuple(int(v) for v in rng.integers([1, 0, 0], [5, 4, 5])) for _ in range(6)]
        batch = collate(features(sizes, seed=step))
        labels = rng.uniform(size=6)
        got = session.step(packed(batch), labels, every(batch))
        want = oracle.step(batch, labels, every(batch))
        assert abs(got - want) <= 1e-12 * abs(want), step
        assert_relative(model.state_dict(), oracle.model.state_dict(), 1e-12)


def test_rejects_bad_configuration():
    model = MSCN(TABLE_DIM, JOIN_DIM, PRED_DIM, hidden_units=4)
    knobs = dict(loss="qerror", log_max_card=9.0, learning_rate=1e-3)
    with pytest.raises(TrainingError, match="huber"):
        TrainingSession(model, **{**knobs, "loss": "huber"})
    with pytest.raises(TrainingError, match="log_max_card"):
        TrainingSession(model, **{**knobs, "log_max_card": 0.0})
    with pytest.raises(TrainingError, match="learning rate"):
        TrainingSession(model, **{**knobs, "learning_rate": 0.0})
    with pytest.raises(TypeError):
        TrainingSession(model)  # no knob has a default
    batch = collate(features([(1, 1, 1)], 0))
    with pytest.raises(TrainingError, match="shape"):
        TrainingSession(model, **knobs).gradients(packed(batch), np.zeros(2), every(batch))


def test_pooled_buffers_are_reused_across_steps():
    model, session, _ = both("qerror")
    batch = packed(collate(features([(2, 1, 3), (1, 0, 2), (3, 2, 1)], seed=6)))
    labels = np.array([0.2, 0.5, 0.8])
    session.step(batch, labels, every(batch))
    pool = {key: id(buf) for key, buf in session._pool.buffers().items()}
    session.step(batch, labels, every(batch))
    assert {key: id(buf) for key, buf in session._pool.buffers().items()} == pool


def test_benchmark_build_trains_the_same_weights_both_ways(monkeypatch):
    """The benchmark's ``build_sketch`` round (``drivers.build_config()``:
    1000 queries, 4 epochs, batch size 256, on ``drivers.make_db()``),
    once through the session and once through the oracle graph."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"))
    import drivers
    from repro.core import build_sketch, training
    from repro.workload import spec_for_imdb

    db, spec = drivers.make_db(), spec_for_imdb()
    sketch, report = build_sketch(db, spec, config=drivers.build_config(), seed=0)
    monkeypatch.setattr(training, "TrainingSession", OracleTrainingSession)
    reference, oracle_report = build_sketch(db, spec, config=drivers.build_config(), seed=0)
    assert len(report.training.epochs) == drivers.BUILD_EPOCHS
    assert_relative(sketch.model.state_dict(), reference.model.state_dict(), 1e-9)
    np.testing.assert_allclose(
        report.training.loss_curve(), oracle_report.training.loss_curve(), rtol=1e-9
    )
