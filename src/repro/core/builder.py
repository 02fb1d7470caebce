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

Queries with a true cardinality of zero are discarded before training,
following the reference implementation (their log-label is undefined).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import SketchError
from ..rng import SeedLike, make_rng, spawn
from ..db.database import Database
from ..db.executor import execute_count
from ..sampling.bitmaps import batch_bitmaps
from ..sampling.sampler import materialize_samples
from ..workload.generator import TrainingQueryGenerator, WorkloadSpec
from ..workload.query import Query
from .batches import TrainingSet
from .featurization import Featurizer
from .mscn import MSCN
from .sketch import DeepSketch
from .training import Trainer, TrainingConfig, TrainingResult

#: Pipeline stages, in order, as named in Figure 1a.
STAGES = ("define", "generate", "execute", "train")


@dataclass(frozen=True)
class SketchConfig:
    """Everything step 1 lets the user choose (plus model knobs)."""

    sample_size: int = 1000
    n_training_queries: int = 10_000
    epochs: int = 25
    hidden_units: int = 64
    batch_size: int = 256
    learning_rate: float = 1e-3
    loss: str = "qerror"
    #: Chunk size for label execution; models the demo's parallel HyPer
    #: instances (one progress event per chunk).
    label_chunk_size: int = 500
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
    # pipeline steps
    # ------------------------------------------------------------------
    def _execute_labels(
        self, queries: list[Query]
    ) -> tuple[list[Query], np.ndarray]:
        """True cardinalities for each query, dropping empty results."""
        kept: list[Query] = []
        labels: list[int] = []
        chunk = max(self.config.label_chunk_size, 1)
        for start in range(0, len(queries), chunk):
            for query in queries[start : start + chunk]:
                cardinality = execute_count(self.db, query)
                if cardinality > 0:
                    kept.append(query)
                    labels.append(cardinality)
            self._emit(
                "execute",
                min(start + chunk, len(queries)),
                len(queries),
                "executing training queries",
            )
        return kept, np.asarray(labels, dtype=np.float64)

    def build(
        self,
        name: str,
        seed: SeedLike = None,
        training_queries: list[Query] | None = None,
    ) -> tuple[DeepSketch, BuildReport]:
        """Run all four stages and return the sketch plus a report.

        ``training_queries`` replaces the uniform generator of step 2
        with a user-supplied workload — the paper's "instead of
        generating queries ... one could also use past user queries".
        Each query must stay within the sketch's table subset.
        """
        rng = make_rng(self.config.seed if seed is None else seed)
        sample_rng, query_rng, model_rng, train_rng = spawn(rng, 4)
        report = BuildReport()

        # 1 -- define: materialize the per-table samples.
        start = time.perf_counter()
        self._emit("define", 0, 1, "materializing samples")
        samples = materialize_samples(
            self.db, self.spec.tables, self.config.sample_size, seed=sample_rng
        )
        self._emit("define", 1, 1)
        report.stage_seconds["define"] = time.perf_counter() - start

        # 2 -- training queries: generated uniformly, or a past workload.
        start = time.perf_counter()
        if training_queries is None:
            generator = TrainingQueryGenerator(self.db, self.spec, seed=query_rng)
            queries = generator.draw_many(self.config.n_training_queries)
        else:
            queries = list(training_queries)
            allowed = set(self.spec.tables)
            for query in queries:
                outside = {t.table for t in query.tables} - allowed
                if outside:
                    raise SketchError(
                        f"workload query uses tables {sorted(outside)} outside "
                        f"the sketch's subset {sorted(allowed)}"
                    )
        report.n_queries_generated = len(queries)
        self._emit("generate", len(queries), len(queries), "collected queries")
        report.stage_seconds["generate"] = time.perf_counter() - start

        # 3 -- execute: labels from the database, bitmaps from samples.
        start = time.perf_counter()
        kept, labels = self._execute_labels(queries)
        report.n_zero_cardinality_dropped = len(queries) - len(kept)
        if len(kept) < 10:
            raise SketchError(
                f"only {len(kept)} of {len(queries)} training queries had "
                "non-zero results; increase n_training_queries or data size"
            )
        report.max_training_cardinality = float(labels.max())
        report.stage_seconds["execute"] = time.perf_counter() - start

        # 4 -- featurize and train.
        start = time.perf_counter()
        featurizer = Featurizer.build(
            self.db,
            self.spec,
            self.config.sample_size,
            use_bitmaps=self.config.use_sample_bitmaps,
        )
        featurizer.fit_labels(labels)
        features = featurizer.featurize_batch(
            kept, batch_bitmaps(samples, kept), db=self.db
        )
        normalized = featurizer.normalize_label(labels)
        dataset = TrainingSet(features, normalized)
        model = MSCN(
            table_dim=featurizer.table_dim,
            join_dim=featurizer.join_dim,
            predicate_dim=featurizer.predicate_dim,
            hidden_units=self.config.hidden_units,
            seed=model_rng,
        )
        trainer = Trainer(
            model,
            featurizer,
            TrainingConfig(
                epochs=self.config.epochs,
                batch_size=self.config.batch_size,
                learning_rate=self.config.learning_rate,
                loss=self.config.loss,
            ),
        )
        total_epochs = self.config.epochs
        report.training = trainer.fit(
            dataset,
            callback=lambda stats: self._emit(
                "train",
                stats.epoch,
                total_epochs,
                f"epoch {stats.epoch}: val mean q-error {stats.val_qerror_mean:.2f}",
            ),
            seed=train_rng,
        )
        report.stage_seconds["train"] = time.perf_counter() - start

        sketch = DeepSketch(
            name=name,
            featurizer=featurizer,
            model=model,
            samples=samples,
            metadata={
                "dataset": self.db.name,
                "n_training_queries": len(kept),
                "epochs": self.config.epochs,
                "hidden_units": self.config.hidden_units,
                "final_val_mean_qerror": report.training.final_val_mean_qerror,
            },
        )
        return sketch, report


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
