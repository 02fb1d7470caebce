"""Sketch maintenance: drift detection and fine-tuning.

The paper closes with "more research is needed to automate the training
and utilization of Deep Sketches in query optimizers".  Two building
blocks of that automation are implemented here:

* **drift detection** — a sketch's materialized samples are a snapshot
  of the data; when the database changes, stored-sample statistics drift
  away from fresh-sample statistics.  :func:`detect_drift` quantifies
  the drift per table (two-sample Kolmogorov–Smirnov over the numeric
  columns, total-variation distance over each string column's category
  frequencies) and flags a sketch stale past the KS critical value for
  its sample size; :mod:`repro.serve.lifecycle` acts on that flag.
* **refresh + fine-tune** — :func:`refresh_sketch` re-materializes the
  samples against the current database and continues training the
  *existing* network on freshly labelled queries (warm start), which is
  much cheaper than building from scratch when the change is moderate.
  It samples, labels, featurizes and trains through the stage methods
  of :class:`~repro.core.builder.SketchBuilder` — the same batched code
  a build runs — and keeps only the warm start (the sketch's featurizer
  and a copy of its model) and its own query count to itself.
  :func:`try_refresh_sketch` wraps it into a structured
  :class:`RefreshResult` so an automated watcher (see
  :mod:`repro.serve.lifecycle`) can record failures and retry with
  backoff instead of crashing.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from ..errors import RefreshFailure
from ..rng import SeedLike, make_rng, spawn
from ..db.database import Database
from ..db.types import DType
from ..sampling.sampler import materialize_samples
from ..workload.generator import TrainingQueryGenerator, WorkloadSpec
from .builder import SketchBuilder, SketchConfig
from .sketch import DeepSketch


#: Number of head categories compared per string column; everything
#: rarer is pooled into one tail bucket.  Bucketing bounds the
#: sampling-noise floor of the total-variation distance: with at most
#: 17 buckets, two same-distribution samples of size ``n`` read a TV
#: well under the drift threshold, while a genuine shift in the head
#: categories (new dominant vendor, vanished era) still registers
#: strongly.
_CATEGORY_HEAD = 16


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic: the largest gap between
    the empirical CDFs of ``a`` and ``b`` (both non-empty).

    The gap at ``x`` is ``|i/n_a - j/n_b| = |i*(n_b/g) - j*(n_a/g)| / lcm``
    with ``g = gcd(n_a, n_b)``; its numerator is an integer, so the
    largest gap is found exactly and rounded once, in the division.
    """
    a = np.sort(a)
    b = np.sort(b)
    both = np.concatenate([a, b])
    g = math.gcd(a.size, b.size)
    gaps = np.searchsorted(a, both, side="right") * (b.size // g) - (
        np.searchsorted(b, both, side="right") * (a.size // g)
    )
    return int(np.max(np.abs(gaps))) / (a.size // g * b.size)


def _categorical_tv(stored_col, fresh_col) -> float:
    """Total-variation distance between two string columns' categories.

    Dictionary *codes* are not comparable across databases (each column
    sorts its own dictionary), so both sides are decoded to strings and
    compared as frequency vectors over the top-``_CATEGORY_HEAD``
    categories of the pooled data plus one tail bucket.  Returns a value
    in [0, 1]: 0 for identical category mixes, 1 for disjoint ones.
    """
    a_codes = stored_col.non_null_values()
    b_codes = fresh_col.non_null_values()
    if a_codes.size == 0 or b_codes.size == 0:
        return 0.0
    a_counts: dict[str, int] = {}
    for code, count in zip(*np.unique(a_codes, return_counts=True)):
        a_counts[stored_col.dictionary[int(code)]] = int(count)
    b_counts: dict[str, int] = {}
    for code, count in zip(*np.unique(b_codes, return_counts=True)):
        b_counts[fresh_col.dictionary[int(code)]] = int(count)
    pooled = {
        cat: a_counts.get(cat, 0) + b_counts.get(cat, 0)
        for cat in set(a_counts) | set(b_counts)
    }
    head = sorted(pooled, key=lambda cat: (-pooled[cat], cat))[:_CATEGORY_HEAD]
    a_total = float(a_codes.size)
    b_total = float(b_codes.size)
    tv = 0.0
    a_tail, b_tail = a_total, b_total
    for cat in head:
        a_freq = a_counts.get(cat, 0)
        b_freq = b_counts.get(cat, 0)
        a_tail -= a_freq
        b_tail -= b_freq
        tv += abs(a_freq / a_total - b_freq / b_total)
    tv += abs(a_tail / a_total - b_tail / b_total)
    return 0.5 * tv


@dataclass(frozen=True)
class DriftReport:
    """Per-table drift between stored and fresh samples."""

    #: table -> maximum drift statistic over its columns (0..1): the KS
    #: statistic for numeric columns, the total-variation distance over
    #: category frequencies for string columns.
    table_drift: dict[str, float]
    #: Decision threshold used by :meth:`is_stale`.
    threshold: float = 0.15

    def max_drift(self) -> float:
        return max(self.table_drift.values(), default=0.0)

    def is_stale(self) -> bool:
        """True when any table drifted beyond the threshold."""
        return self.max_drift() > self.threshold

    def __str__(self) -> str:
        rows = ", ".join(f"{t}={d:.3f}" for t, d in sorted(self.table_drift.items()))
        return f"DriftReport(max={self.max_drift():.3f}, {rows})"


def detect_drift(
    sketch: DeepSketch, db: Database, seed: SeedLike = None
) -> DriftReport:
    """Compare the sketch's stored samples against fresh ones from ``db``.

    For every sketch table, a fresh sample of the same size is drawn and
    each column's drift statistic is computed — the two-sample KS
    statistic for numeric columns, the total-variation distance over
    decoded category frequencies for string columns (dictionary codes
    are not comparable across databases, category *strings* are); the
    table's drift is the maximum over its columns.  Identical data gives
    statistics near zero; distribution shifts (new eras, new categories)
    push them toward one.

    The report's threshold is the two-sample KS critical value at
    α ≈ 0.005 for the sketch's sample size (``1.73 * sqrt(2 / n)``), so
    two samples of the *same* distribution very rarely read as drift
    regardless of how large the samples are.  The TV statistic is held
    to the same threshold: head-plus-tail bucketing (see
    :func:`_categorical_tv`) keeps its same-distribution noise floor
    below the KS critical value — an approximation, not an exact test,
    but the decision semantics match.
    """
    n = max(sketch.samples.sample_size, 1)
    threshold = 1.73 * float(np.sqrt(2.0 / n))
    rng = make_rng(seed)
    fresh = materialize_samples(
        db, sketch.tables, sketch.samples.sample_size, seed=rng
    )
    drift: dict[str, float] = {}
    for table_name in sketch.tables:
        stored_table = sketch.samples.for_table(table_name)
        fresh_table = fresh.for_table(table_name)
        worst = 0.0
        for column_name, stored_col in stored_table.columns.items():
            if stored_col.dtype is DType.STRING:
                worst = max(
                    worst,
                    _categorical_tv(stored_col, fresh_table.column(column_name)),
                )
                continue
            a = stored_col.non_null_values().astype(float)
            b = fresh_table.column(column_name).non_null_values().astype(float)
            if a.size == 0 or b.size == 0:
                continue
            worst = max(worst, ks_statistic(a, b))
        drift[table_name] = worst
    return DriftReport(table_drift=drift, threshold=threshold)


def refresh_sketch(
    sketch: DeepSketch,
    db: Database,
    spec: WorkloadSpec,
    n_queries: int = 2000,
    epochs: int = 5,
    seed: SeedLike = None,
) -> DeepSketch:
    """Refresh samples and fine-tune the existing model on ``db``.

    The network keeps its weights (warm start); only ``epochs`` of
    additional training on ``n_queries`` freshly labelled queries are
    run, and the materialized samples are re-drawn so estimation-time
    bitmaps reflect the current data.  Label normalization constants are
    kept — they are part of the model's output contract — so the fine-
    tuned sketch remains comparable to the original.

    Returns a new :class:`DeepSketch`; the input sketch is not modified.
    Failures raise :class:`~repro.errors.RefreshFailure` (a
    :class:`~repro.errors.SketchError`) with a structured ``code``:
    ``"spec_mismatch"`` when ``spec`` does not cover the sketch's
    tables, ``"insufficient_queries"`` when fewer than 10 generated
    queries are non-empty on the current data.
    """
    if set(spec.tables) != set(sketch.tables):
        raise RefreshFailure(
            f"spec tables {sorted(spec.tables)} must match the sketch's "
            f"{sketch.tables}",
            code="spec_mismatch",
        )
    rng = make_rng(seed)
    sample_rng, query_rng, train_rng = spawn(rng, 3)
    builder = SketchBuilder(
        db, spec, SketchConfig(sample_size=sketch.samples.sample_size, epochs=epochs)
    )

    samples = builder.define(sample_rng)
    batch = TrainingQueryGenerator(db, spec, seed=query_rng).draw_batch(n_queries)
    kept, labels, bitmaps = builder.execute(batch, samples)
    if len(kept) < 10:
        raise RefreshFailure(
            f"only {len(kept)} non-empty fine-tuning queries; need at least 10",
            code="insufficient_queries",
        )

    featurizer = sketch.featurizer  # vocabularies and label bounds reused
    model = copy.deepcopy(sketch.model)
    result = builder.trainer(model, featurizer).fit(
        builder.training_set(featurizer, kept, bitmaps, labels), seed=train_rng
    )

    metadata = dict(sketch.metadata)
    metadata["refreshed"] = True
    metadata["fine_tune_epochs"] = epochs
    metadata["fine_tune_val_mean_qerror"] = result.final_val_mean_qerror
    return DeepSketch(
        name=sketch.name,
        featurizer=featurizer,
        model=model,
        samples=samples,
        metadata=metadata,
        inference_dtype=sketch.inference_dtype,
    )


@dataclass(frozen=True)
class RefreshResult:
    """Structured outcome of one refresh attempt (never raises).

    ``ok`` with a ``sketch`` on success; otherwise ``code`` carries the
    structured failure class (``"spec_mismatch"``,
    ``"insufficient_queries"``, or ``"internal"`` for anything
    unexpected) and ``error`` the human-readable message, so a watcher
    thread can record the failure and schedule a retry instead of dying.
    """

    ok: bool
    sketch: DeepSketch | None = None
    error: str | None = None
    code: str | None = None

    @property
    def retryable(self) -> bool:
        """Whether a later retry could plausibly succeed.

        A spec mismatch is a configuration bug — retrying it burns
        training time forever; insufficient queries and unexpected
        faults may resolve as data arrives or the environment recovers.
        """
        return not self.ok and self.code != "spec_mismatch"


def try_refresh_sketch(
    sketch: DeepSketch,
    db: Database,
    spec: WorkloadSpec,
    n_queries: int = 2000,
    epochs: int = 5,
    seed: SeedLike = None,
) -> RefreshResult:
    """:func:`refresh_sketch`, with every failure folded into the result.

    The lifecycle manager's building block: a crash anywhere in the
    refresh pipeline (generation, labelling, featurization, training)
    becomes a :class:`RefreshResult` with a structured code — the
    calling watcher thread never has to survive an exception.
    """
    try:
        refreshed = refresh_sketch(
            sketch, db, spec, n_queries=n_queries, epochs=epochs, seed=seed
        )
    except RefreshFailure as exc:
        return RefreshResult(ok=False, error=str(exc), code=exc.code)
    except Exception as exc:
        return RefreshResult(
            ok=False,
            error=f"unexpected refresh failure: {exc!r}",
            code="internal",
        )
    return RefreshResult(ok=True, sketch=refreshed)
