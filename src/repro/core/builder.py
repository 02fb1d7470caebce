"""The four-step sketch creation pipeline (paper Figure 1a).

1. **Define** — select a subset of tables, the number of materialized
   samples, training queries, and epochs.
2. **Generate training queries** — uniformly choose tables, columns,
   and predicate types; draw literals from the database.
3. **Execute training queries** — against the database to obtain true
   cardinalities, and against the materialized samples to obtain
   qualifying bitmaps.  (The demo parallelizes this across HyPer
   instances; here label execution is chunked so progress events fire
   at the same granularity.)
4. **Train** — featurize static query features and bitmaps, train the
   MSCN for the specified number of epochs.

The round works on one columnar :class:`~repro.db.batch.QueryBatch`
from step 2 on, never on per-query objects: the generator draws
straight into it; :func:`~repro.db.executor.label_batch` counts it per
join structure and gathers each query's sample bitmaps from the same
full-table predicate masks at the samples' row ids
(``MaterializedSamples.row_ids``); the featurizer writes its packed
set rows (:meth:`~repro.core.featurization.Featurizer.featurize_packed`)
into a :class:`~repro.core.batches.TrainingSet`.

The pipeline is written once, here.  :meth:`SketchBuilder.start` runs
steps 1-3, featurizes, and sets up the model and its trainer; the
:class:`PendingBuild` it returns trains one epoch per
:meth:`PendingBuild.step` and assembles the sketch and its
:class:`BuildReport` after the last one.  :meth:`SketchBuilder.build`
is ``start`` plus stepping to the end.  The demo's incremental build
(:mod:`repro.demo.manager`) steps the same object between queries, and
the shadow refresh (:func:`repro.core.maintenance.refresh_sketch`) runs
the stage methods on a warm-started model.

Queries with a true cardinality of zero are discarded before training,
following the reference implementation (their log-label is undefined).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..errors import SketchError
from ..rng import SeedLike, make_rng, spawn
from ..db.batch import QueryBatch, segment_rows
from ..db.database import Database
from ..db.executor import label_batch
from ..sampling.sampler import MaterializedSamples, materialize_samples
from ..workload.generator import TrainingQueryGenerator, WorkloadSpec
from ..db.query import Query
from ..nn.training import LOSSES
from .batches import TrainingSet
from .featurization import Featurizer
from .mscn import MSCN
from .sketch import DeepSketch
from .training import EpochStats, Trainer, TrainingResult

#: Pipeline stages, in order, as named in Figure 1a.
STAGES = ("define", "generate", "execute", "train")

#: Label execution runs in chunks of this many queries, one ``execute``
#: progress event per chunk; models the demo's parallel HyPer instances.
#: Each chunk is one :func:`~repro.db.executor.label_batch` call, so
#: the counting memo (and its predicate masks) lives for one chunk.
LABEL_CHUNK_SIZE = 500


@dataclass(frozen=True)
class SketchConfig:
    """Everything step 1 lets the user choose (plus model knobs)."""

    sample_size: int = 1000
    n_training_queries: int = 10_000
    epochs: int = 25
    hidden_units: int = 64
    batch_size: int = 256
    learning_rate: float = 1e-3
    loss: str = "qerror"  # or "mse"
    #: Ablation switch: train without the qualifying-sample bitmaps
    #: (static query features only).
    use_sample_bitmaps: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.sample_size <= 0:
            raise SketchError(f"sample_size must be positive, got {self.sample_size}")
        if self.n_training_queries < 10:
            raise SketchError(
                f"need at least 10 training queries, got {self.n_training_queries}"
            )
        if self.epochs <= 0:
            raise SketchError(f"epochs must be positive, got {self.epochs}")
        if self.loss not in LOSSES:
            raise SketchError(f"unknown loss {self.loss!r}")


@dataclass(frozen=True)
class ProgressEvent:
    """One progress tick: stage name, work done, work total."""

    stage: str
    current: int
    total: int
    message: str = ""

    @property
    def fraction(self) -> float:
        return self.current / self.total if self.total else 1.0


ProgressCallback = Callable[[ProgressEvent], None]


@dataclass
class BuildReport:
    """What happened during a build, stage by stage."""

    stage_seconds: dict[str, float] = field(default_factory=dict)
    n_queries_generated: int = 0
    n_zero_cardinality_dropped: int = 0
    max_training_cardinality: float = 0.0
    training: TrainingResult | None = None

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())


class SketchBuilder:
    """Runs the Figure 1a pipeline and hands back a queryable sketch."""

    def __init__(
        self,
        db: Database,
        spec: WorkloadSpec,
        config: SketchConfig | None = None,
        progress: ProgressCallback | None = None,
    ):
        self.db = db
        self.spec = spec
        self.config = config or SketchConfig()
        self._progress = progress or (lambda event: None)

    def _emit(self, stage: str, current: int, total: int, message: str = "") -> None:
        self._progress(ProgressEvent(stage, current, total, message))

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def define(self, seed: SeedLike) -> MaterializedSamples:
        """Step 1: materialize the per-table samples."""
        self._emit("define", 0, 1, "materializing samples")
        samples = materialize_samples(
            self.db, self.spec.tables, self.config.sample_size, seed=seed
        )
        self._emit("define", 1, 1)
        return samples

    def generate(
        self, seed: SeedLike, training_queries: list[Query] | None = None
    ) -> QueryBatch:
        """Step 2: uniformly generated queries, or a past workload."""
        if training_queries is None:
            generator = TrainingQueryGenerator(self.db, self.spec, seed=seed)
            batch = generator.draw_batch(self.config.n_training_queries)
        else:
            batch = QueryBatch.from_queries(training_queries)
            allowed = set(self.spec.tables)
            for structure in batch.structures:
                outside = {t.table for t in structure.tables} - allowed
                if outside:
                    raise SketchError(
                        f"workload query uses tables {sorted(outside)} outside "
                        f"the sketch's subset {sorted(allowed)}"
                    )
        self._emit("generate", len(batch), len(batch), "collected queries")
        return batch

    def execute(
        self, batch: QueryBatch, samples: MaterializedSamples
    ) -> tuple[QueryBatch, np.ndarray, np.ndarray]:
        """Step 3: true cardinalities, and the sample bitmaps gathered from
        the same predicate masks; queries with empty results are dropped.

        Returns the kept queries, their labels and their table-set rows'
        bitmaps (:func:`~repro.db.executor.label_batch`).
        """
        labels: list[int] = []
        bitmaps = [np.zeros((0, samples.sample_size), dtype=bool)]
        for start in range(0, len(batch), LABEL_CHUNK_SIZE):
            stop = min(start + LABEL_CHUNK_SIZE, len(batch))
            counts, chunk_bitmaps = label_batch(
                self.db, batch.take(np.arange(start, stop)), samples.row_ids,
                samples.sample_size,
            )
            labels += counts
            bitmaps.append(chunk_bitmaps)
            self._emit("execute", stop, len(batch), "executing training queries")
        cardinalities = np.asarray(labels, dtype=np.float64)
        kept = np.flatnonzero(cardinalities > 0)
        rows = segment_rows(batch.table_offsets(), kept)
        return batch.take(kept), cardinalities[kept], np.concatenate(bitmaps)[rows]

    def training_set(
        self,
        featurizer: Featurizer,
        batch: QueryBatch,
        bitmaps: np.ndarray,
        labels: np.ndarray,
    ) -> TrainingSet:
        """Step 4's input: the batch featurized into packed sets."""
        return TrainingSet(
            *featurizer.featurize_packed(batch, bitmaps, db=self.db),
            featurizer.normalize_label(labels),
        )

    def trainer(self, model: MSCN, featurizer: Featurizer) -> Trainer:
        """Step 4's optimization loop over ``model``, per this config."""
        return Trainer(
            model,
            featurizer,
            epochs=self.config.epochs,
            batch_size=self.config.batch_size,
            learning_rate=self.config.learning_rate,
            loss=self.config.loss,
        )

    # ------------------------------------------------------------------
    # whole builds
    # ------------------------------------------------------------------
    def start(
        self,
        name: str,
        seed: SeedLike = None,
        training_queries: list[Query] | None = None,
    ) -> PendingBuild:
        """Steps 1-3, featurization, and the model; training is left to
        :meth:`PendingBuild.step`.

        ``training_queries`` replaces the uniform generator of step 2
        with a user-supplied workload — the paper's "instead of
        generating queries ... one could also use past user queries".
        Each query must stay within the sketch's table subset.
        """
        rng = make_rng(self.config.seed if seed is None else seed)
        sample_rng, query_rng, model_rng, train_rng = spawn(rng, 4)
        report = BuildReport()

        start = time.perf_counter()
        samples = self.define(sample_rng)
        report.stage_seconds["define"] = time.perf_counter() - start

        start = time.perf_counter()
        batch = self.generate(query_rng, training_queries)
        report.n_queries_generated = len(batch)
        report.stage_seconds["generate"] = time.perf_counter() - start

        start = time.perf_counter()
        kept, labels, bitmaps = self.execute(batch, samples)
        report.n_zero_cardinality_dropped = len(batch) - len(kept)
        if len(kept) < 10:
            raise SketchError(
                f"only {len(kept)} of {len(batch)} training queries had "
                "non-zero results; increase n_training_queries or data size"
            )
        report.max_training_cardinality = float(labels.max())
        report.stage_seconds["execute"] = time.perf_counter() - start

        # 4 -- featurize and set up the model; the epochs run in step().
        start = time.perf_counter()
        featurizer = Featurizer.build(
            self.db,
            self.spec,
            self.config.sample_size,
            use_bitmaps=self.config.use_sample_bitmaps,
        )
        featurizer.fit_labels(labels)
        dataset = self.training_set(featurizer, kept, bitmaps, labels)
        model = MSCN(
            table_dim=featurizer.table_dim,
            join_dim=featurizer.join_dim,
            predicate_dim=featurizer.predicate_dim,
            hidden_units=self.config.hidden_units,
            seed=model_rng,
        )
        report.training = TrainingResult()
        trainer = self.trainer(model, featurizer)
        loop = trainer.epochs(dataset, report.training, seed=train_rng)
        report.stage_seconds["train"] = time.perf_counter() - start
        metadata = {
            "dataset": self.db.name,
            "n_training_queries": len(kept),
            "epochs": self.config.epochs,
            "hidden_units": self.config.hidden_units,
        }
        return PendingBuild(self, name, featurizer, model, samples, metadata, report, loop)

    def build(
        self,
        name: str,
        seed: SeedLike = None,
        training_queries: list[Query] | None = None,
    ) -> tuple[DeepSketch, BuildReport]:
        """Run all four stages and return the sketch plus a report
        (:meth:`start`, then :meth:`PendingBuild.step` until finished)."""
        pending = self.start(name, seed=seed, training_queries=training_queries)
        while not pending.finished:
            pending.step()
        return pending.sketch, pending.report


@dataclass
class PendingBuild:
    """A started build whose train stage advances one epoch per :meth:`step`.

    ``report`` fills in as the build goes (``report.training`` gains an
    epoch per step); ``sketch`` stays ``None`` until the last epoch ran.
    """

    builder: SketchBuilder
    name: str
    featurizer: Featurizer
    model: MSCN
    samples: MaterializedSamples
    #: The sketch's metadata; the last step adds the final validation error.
    metadata: dict
    report: BuildReport
    #: The trainer's epoch loop (:meth:`Trainer.epochs`) over the build's
    #: training set, recording into ``report.training``.
    loop: Iterator[EpochStats]
    sketch: DeepSketch | None = None

    @property
    def finished(self) -> bool:
        return self.sketch is not None

    @property
    def epoch_stats(self) -> list[EpochStats]:
        return self.report.training.epochs

    @property
    def epochs_done(self) -> int:
        return len(self.epoch_stats)

    def step(self) -> EpochStats:
        """Train one epoch; after the last one, assemble the sketch."""
        if self.finished:
            raise SketchError(f"build {self.name!r} has already finished")
        start = time.perf_counter()
        stats = next(self.loop)
        self.builder._emit(
            "train",
            stats.epoch,
            self.builder.config.epochs,
            f"epoch {stats.epoch}: val mean q-error {stats.val_qerror_mean:.2f}",
        )
        self.report.stage_seconds["train"] += time.perf_counter() - start
        training = self.report.training
        if training.validation_summary is not None:  # that was the last epoch
            self.metadata["final_val_mean_qerror"] = training.final_val_mean_qerror
            self.sketch = DeepSketch(
                name=self.name,
                featurizer=self.featurizer,
                model=self.model,
                samples=self.samples,
                metadata=self.metadata,
            )
        return stats


def build_sketch(
    db: Database,
    spec: WorkloadSpec,
    name: str = "sketch",
    config: SketchConfig | None = None,
    progress: ProgressCallback | None = None,
    seed: SeedLike = None,
) -> tuple[DeepSketch, BuildReport]:
    """One-call convenience wrapper around :class:`SketchBuilder`."""
    return SketchBuilder(db, spec, config=config, progress=progress).build(name, seed=seed)
