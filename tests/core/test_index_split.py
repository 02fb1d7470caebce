"""Training splits by index: the same weights as copying the split, and
no float64 copy of the sample bitmaps.

``Trainer.epochs`` hands the training session the build's one packed
dataset plus query indices.  :func:`copying_epochs` keeps the loop it
replaced as the oracle: the dataset copied into a train and a
validation set, each minibatched over its own positions.  At the
benchmark's build config (``drivers.build_config()``: 1000 queries,
4 epochs, 1000-row samples), every path that trains — ``build_sketch``,
the stepped ``step_build`` and ``refresh_sketch`` — ends at bitwise the
same weights, losses and validation errors both ways; and the dataset
a build trains on stays at its boolean footprint.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import Trainer, build_sketch
from repro.core.batches import TrainingSet
from repro.core.featurization import PackedSet
from repro.core.maintenance import refresh_sketch
from repro.core.training import VALIDATION_FRACTION, EpochStats
from repro.db.batch import offsets_of, segment_rows
from repro.demo import SketchManager
from repro.metrics import summarize_qerrors
from repro.nn import TrainingSession
from repro.rng import make_rng
from repro.workload import spec_for_imdb

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def take(packed: PackedSet, index: np.ndarray) -> PackedSet:
    """Queries ``index`` of a packed set, copied."""
    rows = segment_rows(packed.offsets, index)
    bitmaps = None if packed.bitmaps is None else packed.bitmaps[rows]
    counts = packed.offsets[index + 1] - packed.offsets[index]
    return PackedSet(packed.rows[rows], offsets_of(counts), bitmaps)


def take_set(dataset: TrainingSet, index: np.ndarray) -> TrainingSet:
    return TrainingSet(
        take(dataset.tables, index),
        take(dataset.joins, index),
        take(dataset.predicates, index),
        dataset.labels[index],
    )


def copying_epochs(trainer, dataset, result, seed=0):
    """``Trainer.epochs`` with a copying split: one permutation of the
    generator splits the dataset into validation then training copies;
    every epoch shuffles the training copy's positions with the same
    generator and validates the copy in 512-query slices."""
    rng = make_rng(seed)
    order = rng.permutation(len(dataset))
    n_val = max(int(round(len(dataset) * VALIDATION_FRACTION)), 1)
    train_set, val_set = take_set(dataset, order[n_val:]), take_set(dataset, order[:n_val])
    for epoch in range(1, trainer.n_epochs + 1):
        positions = np.arange(len(train_set))
        rng.shuffle(positions)
        losses = []
        for start in range(0, positions.size, trainer.batch_size):
            index = positions[start : start + trainer.batch_size]
            losses.append(trainer.session.step(train_set, train_set.labels[index], index))
        errors = []
        for start in range(0, len(val_set), 512):
            index = np.arange(start, min(start + 512, len(val_set)))
            est = trainer.featurizer.denormalize_label(trainer.session.predict(val_set, index))
            true = trainer.featurizer.denormalize_label(val_set.labels[index])
            errors.append(np.maximum(est / true, true / est))
        errors = np.concatenate(errors)
        stats = EpochStats(
            epoch, float(np.mean(losses)), float(errors.mean()), float(np.median(errors)), 0.0
        )
        result.epochs.append(stats)
        if epoch == trainer.n_epochs:
            result.validation_summary = summarize_qerrors(errors)
        yield stats


@pytest.fixture(scope="module")
def bench():
    """The benchmark's database, spec and build config."""
    import sys

    sys.path.insert(0, str(BENCHMARKS))
    try:
        import drivers
    finally:
        sys.path.remove(str(BENCHMARKS))
    return drivers.make_db(), spec_for_imdb(), drivers.build_config()


def recorded(monkeypatch, epochs):
    """Run every ``Trainer.epochs`` through ``epochs``; returns the list
    of ``(dataset, result)`` it trained on."""
    runs = []

    def recording(trainer, dataset, result, seed=0):
        runs.append((dataset, result))
        return epochs(trainer, dataset, result, seed=seed)

    monkeypatch.setattr(Trainer, "epochs", recording)
    return runs


def train_every_path(db, spec, config):
    """The weights of ``build_sketch``, ``step_build`` and
    ``refresh_sketch`` at ``config``."""
    built, _ = build_sketch(db, spec, config=config, seed=0)
    manager = SketchManager(db)
    pending = manager.start_build("stepped", spec, config=config, seed=1)
    while not pending.finished:
        manager.step_build("stepped")
    refreshed = refresh_sketch(built, db, spec, n_queries=1000, epochs=2, seed=2)
    return [sketch.model.state_dict() for sketch in (built, pending.sketch, refreshed)]


def test_index_split_trains_what_the_copying_split_trains(bench, monkeypatch):
    db, spec, config = bench
    indexed = recorded(monkeypatch, Trainer.epochs)
    weights = train_every_path(db, spec, config)
    copied = recorded(monkeypatch, copying_epochs)
    want = train_every_path(db, spec, config)
    for path, got, ref, (_, run), (_, ref_run) in zip(
        ("build_sketch", "step_build", "refresh_sketch"), weights, want, indexed, copied
    ):
        assert list(got) == list(ref), path
        for name in got:
            assert got[name].tobytes() == ref[name].tobytes(), (path, name)
        assert run.loss_curve().tobytes() == ref_run.loss_curve().tobytes(), path
        assert run.val_curve().tobytes() == ref_run.val_curve().tobytes(), path
        assert run.validation_summary == ref_run.validation_summary, path


def test_training_set_keeps_its_bitmaps_boolean_and_is_never_copied(bench, monkeypatch):
    """The dataset a benchmark-config build trains on holds no float64
    array as wide as a sample, its table set at most ``n_tables`` float64
    one-hots plus ``sample_size`` booleans per row, and every step and
    validation forward reads that very object."""
    db, spec, config = bench
    runs = recorded(monkeypatch, Trainer.epochs)
    seen = []
    for method in ("step", "predict"):
        original = getattr(TrainingSession, method)

        def watched(session, dataset, *args, _original=original):
            seen.append(dataset)
            return _original(session, dataset, *args)

        monkeypatch.setattr(TrainingSession, method, watched)
    sketch, _ = build_sketch(db, spec, config=config, seed=0)
    [(dataset, _)] = runs
    assert seen and all(d is dataset for d in seen)

    def owned(array: np.ndarray) -> np.ndarray:
        while isinstance(array.base, np.ndarray):
            array = array.base
        return array

    sample, n_tables = config.sample_size, len(sketch.featurizer.tables)
    arrays = [dataset.labels] + [
        getattr(getattr(dataset, name), block)
        for name in ("tables", "joins", "predicates")
        for block in ("rows", "bitmaps", "offsets")
    ]
    for array in filter(lambda a: a is not None, arrays):
        base = owned(array)
        if base.dtype == np.float64 and base.ndim == 2:
            assert base.shape[1] < sample, base.shape
    tables = dataset.tables
    n_rows = int(tables.offsets[-1])
    assert tables.bitmaps.dtype == bool and tables.bitmaps.shape == (n_rows, sample)
    held = sum(owned(a).nbytes for a in (tables.rows, tables.bitmaps, tables.offsets))
    slack = tables.offsets.nbytes  # 8 bytes per query
    assert held <= n_rows * (n_tables * 8 + sample) + slack, held / n_rows
