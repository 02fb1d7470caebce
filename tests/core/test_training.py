"""Trainer tests: loss decreases, validation tracking, configuration."""

import numpy as np
import pytest

from repro.core import (
    MSCN,
    Featurizer,
    SketchConfig,
    Trainer,
    TrainingResult,
    validation_qerrors,
)
from repro.core.featurization import QueryFeatures
from repro.errors import SketchError, TrainingError
from repro.metrics import summarize_qerrors
from repro.nn import TrainingSession
from tests.helpers import training_set


def synthetic_dataset(n=120, seed=0):
    """A learnable synthetic task: label is a linear readout of features."""
    rng = np.random.default_rng(seed)
    features = []
    labels = []
    for _ in range(n):
        tables = rng.random((2, 4))
        joins = rng.random((1, 3))
        predicates = rng.random((2, 5))
        features.append(QueryFeatures(tables, joins, predicates))
        signal = tables.mean() * 0.5 + predicates.mean() * 0.5
        labels.append(np.clip(signal, 0.0, 1.0))
    return training_set(features, np.array(labels))


@pytest.fixture
def featurizer():
    f = Featurizer(
        tables=["a", "b"], joins=["j"], columns=["a.x"], operators=["="],
        sample_size=2, column_bounds={"a.x": (0.0, 1.0)},
    )
    f.fit_labels(np.array([1.0, 10_000.0]))
    return f


class TestConfig:
    """The training knobs are SketchConfig fields, checked at construction
    rather than when a build reaches its train stage."""

    def test_invalid_epochs(self):
        with pytest.raises(SketchError, match="epochs"):
            SketchConfig(epochs=0)

    def test_invalid_loss(self):
        with pytest.raises(SketchError, match="huber"):
            SketchConfig(loss="huber")


class TestTrainer:
    def make_trainer(self, featurizer, loss="qerror", epochs=8):
        model = MSCN(table_dim=4, join_dim=3, predicate_dim=5, hidden_units=16, seed=0)
        return Trainer(model, featurizer, epochs=epochs, batch_size=32, loss=loss)

    def test_loss_decreases(self, featurizer):
        trainer = self.make_trainer(featurizer)
        result = trainer.fit(synthetic_dataset())
        assert result.epochs[-1].train_loss < result.epochs[0].train_loss

    def test_mse_loss_variant(self, featurizer):
        trainer = self.make_trainer(featurizer, loss="mse", epochs=5)
        result = trainer.fit(synthetic_dataset())
        assert result.epochs[-1].train_loss < result.epochs[0].train_loss

    def test_epoch_count_and_fields(self, featurizer):
        trainer = self.make_trainer(featurizer, epochs=4)
        result = trainer.fit(synthetic_dataset())
        assert len(result.epochs) == 4
        for i, stats in enumerate(result.epochs, start=1):
            assert stats.epoch == i
            assert stats.val_qerror_mean >= 1.0
            assert stats.val_qerror_median >= 1.0
            assert stats.seconds >= 0.0

    def test_callback_invoked_per_epoch(self, featurizer):
        trainer = self.make_trainer(featurizer, epochs=3)
        calls = []
        trainer.fit(synthetic_dataset(), callback=calls.append)
        assert [c.epoch for c in calls] == [1, 2, 3]

    def test_validation_summary_present(self, featurizer):
        trainer = self.make_trainer(featurizer, epochs=2)
        result = trainer.fit(synthetic_dataset())
        assert result.validation_summary is not None
        assert result.validation_summary.median >= 1.0

    def test_curves(self, featurizer):
        trainer = self.make_trainer(featurizer, epochs=3)
        result = trainer.fit(synthetic_dataset())
        assert result.loss_curve().shape == (3,)
        assert result.val_curve().shape == (3,)
        assert result.final_val_mean_qerror == result.epochs[-1].val_qerror_mean

    def test_unknown_loss_rejected(self, featurizer):
        with pytest.raises(TrainingError, match="huber"):
            self.make_trainer(featurizer, loss="huber")

    def test_too_small_dataset_rejected(self, featurizer):
        trainer = self.make_trainer(featurizer)
        with pytest.raises(TrainingError):
            trainer.fit(synthetic_dataset(n=5))

    def test_deterministic_given_seed(self, featurizer):
        r1 = self.make_trainer(featurizer, epochs=2).fit(synthetic_dataset(), seed=4)
        r2 = self.make_trainer(featurizer, epochs=2).fit(synthetic_dataset(), seed=4)
        assert r1.epochs[-1].train_loss == pytest.approx(r2.epochs[-1].train_loss)

    def test_validation_qerrors_all_at_least_one(self, featurizer):
        model = MSCN(4, 3, 5, hidden_units=8, seed=0)
        errors = validation_qerrors(
            TrainingSession(
                model,
                loss="qerror",
                log_max_card=featurizer.log_label_span,
                learning_rate=1e-3,
            ),
            featurizer,
            synthetic_dataset(n=30),
            np.arange(30),
        )
        assert (errors >= 1.0).all()


class TestValidationPasses:
    """One validation pass per epoch; the summary reuses the last one."""

    @pytest.fixture
    def passes(self, monkeypatch):
        from repro.core import training

        seen = []
        validate = training.validation_qerrors

        def counting(*args, **kwargs):
            seen.append(validate(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(training, "validation_qerrors", counting)
        return seen

    def make_trainer(self, featurizer, epochs):
        model = MSCN(table_dim=4, join_dim=3, predicate_dim=5, hidden_units=16, seed=0)
        return Trainer(model, featurizer, epochs=epochs, batch_size=32)

    def test_full_budget(self, featurizer, passes):
        result = self.make_trainer(featurizer, epochs=3).fit(synthetic_dataset())
        assert len(passes) == len(result.epochs) == 3
        assert result.validation_summary == summarize_qerrors(passes[-1])

    def test_summary_set_with_the_last_epoch_only(self, featurizer):
        trainer = self.make_trainer(featurizer, epochs=3)
        result = TrainingResult()
        summaries = [
            result.validation_summary
            for _ in trainer.epochs(synthetic_dataset(), result, seed=1)
        ]
        assert summaries[:2] == [None, None]
        assert summaries[2] is not None
