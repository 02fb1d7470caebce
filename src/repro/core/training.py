"""MSCN training loop (paper Figure 1a, step 4).

"We featurize the training queries and train the MSCN model for the
specified number of epochs."  Training minimizes the mean q-error of
denormalized predictions with Adam, every step and every validation
forward running through one :class:`~repro.nn.training.TrainingSession`;
per-epoch training loss and
validation q-error statistics are recorded so the demo's monitoring UI
(here: repro.core.monitor) can display progress, and so that the
"25 epochs are usually enough" observation can be checked (F1a bench).

The user fixes the epoch count up front, as in the demo, so every run
trains for exactly that many epochs.  The knobs a caller sets (epochs,
batch size, learning rate, loss) are :class:`~repro.core.builder.
SketchConfig` fields, validated when the config is built;
:class:`Trainer` takes them as plain arguments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..errors import TrainingError
from ..rng import SeedLike, make_rng, spawn
from ..metrics import QErrorSummary, qerrors, summarize_qerrors
from ..nn.training import TrainingSession
from .batches import TrainingSet, batch_indices, split_rows
from .featurization import Featurizer
from .mscn import MSCN


#: Share of the training set held out for per-epoch validation.
VALIDATION_FRACTION = 0.1


@dataclass
class EpochStats:
    """Bookkeeping for one epoch."""

    epoch: int
    train_loss: float
    val_qerror_mean: float
    val_qerror_median: float
    seconds: float


@dataclass
class TrainingResult:
    """Everything the training run produced, for monitoring and benches."""

    epochs: list[EpochStats] = field(default_factory=list)
    validation_summary: QErrorSummary | None = None
    #: Sum of the epochs' wall time (callbacks excluded).
    total_seconds: float = 0.0

    @property
    def final_val_mean_qerror(self) -> float:
        if not self.epochs:
            raise TrainingError("no epochs recorded")
        return self.epochs[-1].val_qerror_mean

    def loss_curve(self) -> np.ndarray:
        return np.array([e.train_loss for e in self.epochs])

    def val_curve(self) -> np.ndarray:
        return np.array([e.val_qerror_mean for e in self.epochs])


#: Callback signature: called after every epoch with the fresh stats.
EpochCallback = Callable[[EpochStats], None]


def validation_qerrors(
    session: TrainingSession,
    featurizer: Featurizer,
    dataset: TrainingSet,
    rows: np.ndarray,
    batch_size: int = 512,
) -> np.ndarray:
    """Q-errors of the session's model on queries ``rows`` of a
    (featurized) dataset, in that order.

    The forward is the training session's own (rows gathered from the
    packed dataset, pooled buffers); label denormalization is vectorized.
    """
    errors: list[np.ndarray] = []
    for index in batch_indices(rows, batch_size, shuffle=False):
        est = featurizer.denormalize_label(session.predict(dataset, index))
        true = featurizer.denormalize_label(dataset.labels[index])
        errors.append(np.maximum(est / true, true / est))
    return np.concatenate(errors) if errors else np.empty(0)


class Trainer:
    """Runs the MSCN optimization loop."""

    def __init__(
        self,
        model: MSCN,
        featurizer: Featurizer,
        epochs: int = 25,
        batch_size: int = 256,
        learning_rate: float = 1e-3,
        loss: str = "qerror",
    ):
        self.model = model
        self.featurizer = featurizer
        self.n_epochs = epochs
        self.batch_size = batch_size
        self.session = TrainingSession(
            model,
            loss=loss,
            log_max_card=featurizer.log_label_span,
            learning_rate=learning_rate,
        )

    def fit(
        self,
        dataset: TrainingSet,
        callback: EpochCallback | None = None,
        seed: SeedLike = 0,
    ) -> TrainingResult:
        """Train for the configured number of epochs (see :meth:`epochs`)."""
        result = TrainingResult()
        for stats in self.epochs(dataset, result, seed=seed):
            if callback is not None:
                callback(stats)
        return result

    def epochs(
        self, dataset: TrainingSet, result: TrainingResult, seed: SeedLike = 0
    ) -> Iterator[EpochStats]:
        """Train one epoch per iteration, recording each into ``result``.

        The dataset is split once into train/validation queries, by
        index (:func:`~repro.core.batches.split_rows`; the dataset is
        never copied); validation q-error statistics are computed after
        every epoch (the quantity the paper watches to declare "25
        epochs are usually enough").
        The last epoch's validation errors fill
        ``result.validation_summary``, so that field is set exactly when
        the final epoch has been yielded.
        """
        if len(dataset) < 10:
            raise TrainingError(
                f"training set of {len(dataset)} queries is too small"
            )
        rng = make_rng(seed)
        train_rows, val_rows = split_rows(len(dataset), VALIDATION_FRACTION, seed=rng)
        for epoch in range(1, self.n_epochs + 1):
            start = time.perf_counter()
            losses = []
            for index in batch_indices(train_rows, self.batch_size, seed=rng):
                losses.append(self.session.step(dataset, dataset.labels[index], index))
            val_errors = validation_qerrors(
                self.session, self.featurizer, dataset, val_rows
            )
            stats = EpochStats(
                epoch=epoch,
                train_loss=float(np.mean(losses)),
                val_qerror_mean=float(val_errors.mean()),
                val_qerror_median=float(np.median(val_errors)),
                seconds=time.perf_counter() - start,
            )
            result.epochs.append(stats)
            result.total_seconds += stats.seconds
            if epoch == self.n_epochs:
                result.validation_summary = summarize_qerrors(val_errors)
            yield stats


# ----------------------------------------------------------------------
# template-level generalization evaluation
# ----------------------------------------------------------------------
#
# The paper's headline claim is that the learned estimator generalizes
# to queries it was not trained on.  A uniform query-level split only
# tests held-out *literals*; the DSB-style methodology splits by
# *template* (see repro.workload.splits), so the test side contains
# query shapes the model never saw.  These helpers evaluate a trained
# sketch per template and run the full experiment: train on the
# training templates' instances, report q-error tails for held-out
# literals (in-template) vs held-out templates (cross-template).


@dataclass
class TemplateEvalResult:
    """Per-template q-error summaries of one sketch on one suite."""

    per_template: dict[str, QErrorSummary]
    overall: QErrorSummary

    def tails(self) -> dict[str, dict[str, float]]:
        """name -> {p50, p95, p99, max, count} (JSON/bench-friendly)."""
        block = {}
        for name, summary in self.per_template.items():
            block[name] = {
                "p50": summary.median,
                "p95": summary.p95,
                "p99": summary.p99,
                "max": summary.max,
                "count": summary.count,
            }
        return block


def evaluate_on_suite(sketch, suite) -> TemplateEvalResult:
    """Per-template q-errors of ``sketch`` on a labeled suite.

    Estimation runs through :meth:`~repro.core.sketch.DeepSketch.
    estimate_many` (one batched pass over the whole suite); errors are
    summarized per template *and* overall — tails are reported per
    template so a bad held-out template cannot be averaged away.
    """
    if not getattr(suite, "labeled", False):
        raise TrainingError("suite must be labeled to evaluate against")
    queries, cards = suite.labeled_pairs()
    estimates = sketch.estimate_many(queries)
    errors = qerrors(estimates, cards)
    per_template: dict[str, QErrorSummary] = {}
    offset = 0
    for entry in suite.templates:
        chunk = errors[offset : offset + len(entry)]
        offset += len(entry)
        per_template[entry.name] = summarize_qerrors(chunk)
    return TemplateEvalResult(
        per_template=per_template, overall=summarize_qerrors(errors)
    )


@dataclass
class GeneralizationReport:
    """The in-template vs cross-template experiment, in one block."""

    train_templates: list[str]
    test_templates: list[str]
    n_train_queries: int
    in_template: TemplateEvalResult
    cross_template: TemplateEvalResult
    sketch: object
    build_report: object

    @property
    def cross_template_p99(self) -> float:
        """Worst per-template p99 on the held-out templates (never averaged)."""
        return max(s.p99 for s in self.cross_template.per_template.values())

    def to_json(self) -> dict:
        return {
            "train_templates": self.train_templates,
            "test_templates": self.test_templates,
            "n_train_queries": self.n_train_queries,
            "in_template": {
                "per_template": self.in_template.tails(),
                "overall": self.in_template.overall.as_dict(),
            },
            "cross_template": {
                "per_template": self.cross_template.tails(),
                "overall": self.cross_template.overall.as_dict(),
                "p99": self.cross_template_p99,
            },
        }


def run_generalization_experiment(
    db,
    spec,
    suite,
    sketch_config=None,
    test_fraction: float = 0.25,
    holdout_fraction: float = 0.2,
    seed: SeedLike = None,
    name: str = "generalization",
) -> GeneralizationReport:
    """Train on training templates, evaluate in- vs cross-template.

    1. ``split_by_template`` holds out whole templates (cross-template
       test side).
    2. ``split_within_template`` further holds literals out of the
       training templates (in-template test side).
    3. A sketch is built on the remaining training instances
       (``SketchBuilder.build(training_queries=...)`` — the paper's
       "one could also use past user queries" hook).
    4. Both held-out sides are evaluated per template.

    ``suite`` is labeled here if it is not already.
    """
    from ..workload.splits import split_by_template, split_within_template
    from .builder import SketchBuilder

    rng = make_rng(seed)
    outer_rng, inner_rng, build_rng = spawn(rng, 3)
    if not suite.labeled:
        suite = suite.label(db)
    outer = split_by_template(suite, test_fraction, seed=outer_rng)
    inner = split_within_template(outer.train, holdout_fraction, seed=inner_rng)

    builder = SketchBuilder(db, spec, config=sketch_config)
    sketch, build_report = builder.build(
        name, seed=build_rng, training_queries=inner.train.queries()
    )
    return GeneralizationReport(
        train_templates=outer.train_names,
        test_templates=outer.test_names,
        n_train_queries=inner.train.n_queries,
        in_template=evaluate_on_suite(sketch, inner.test),
        cross_template=evaluate_on_suite(sketch, outer.test),
        sketch=sketch,
        build_report=build_report,
    )
