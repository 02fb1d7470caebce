"""Importable test helpers (oracles and small builders).

Kept outside ``conftest.py`` so test modules can import them directly:
``conftest`` is pytest plugin machinery, not an importable module, and
``from ..conftest import ...`` breaks when the test tree is collected
without package ``__init__`` files.  Import as::

    from tests.helpers import brute_force_count

which resolves through the repository root on ``sys.path`` (configured
via ``pythonpath`` in ``pyproject.toml``).
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

from repro.db import Database


def brute_force_count(db: Database, query) -> int:
    """Oracle: enumerate the cross product row by row (tiny tables only)."""
    aliases = query.aliases
    tables = {a: db.table(query.alias_table(a)) for a in aliases}
    total_rows = 1
    for t in tables.values():
        total_rows *= max(t.n_rows, 1)
    assert total_rows <= 2_000_000, "brute force helper used on too-large input"

    count = 0
    ranges = [range(tables[a].n_rows) for a in aliases]
    for combo in itertools.product(*ranges):
        rows = dict(zip(aliases, combo))
        ok = True
        for join in query.joins:
            left_t = tables[join.left_alias]
            right_t = tables[join.right_alias]
            lcol = left_t.column(join.left_column)
            rcol = right_t.column(join.right_column)
            li, ri = rows[join.left_alias], rows[join.right_alias]
            if not (lcol.valid[li] and rcol.valid[ri]):
                ok = False
                break
            if lcol.values[li] != rcol.values[ri]:
                ok = False
                break
        if not ok:
            continue
        for pred in query.predicates:
            table = tables[pred.alias]
            mask = table.column(pred.column).evaluate(pred.op, pred.literal)
            if not mask[rows[pred.alias]]:
                ok = False
                break
        if ok:
            count += 1
    return count


def pinned_statistics_inputs():
    """The fixed inputs the numpy statistics are pinned on: two normal
    samples ``a`` (300) and ``b`` (250), and two tied 7-category code
    arrays ``x`` and ``y`` (400) with ``y`` dependent on ``x``."""
    rng = np.random.default_rng(2026)
    a = rng.normal(size=300)
    b = rng.normal(0.2, 1.1, size=250)
    x = rng.integers(0, 7, 400)
    y = (x + rng.integers(0, 3, 400)) % 7
    return a, b, x, y


def training_set(features, labels):
    """A packed :class:`~repro.core.batches.TrainingSet` of per-query
    ``QueryFeatures`` (as ``Featurizer.featurize_batch`` returns them)."""
    from repro.core.batches import TrainingSet
    from repro.core.featurization import PackedSet
    from repro.db.batch import offsets_of

    sets = [
        PackedSet(
            np.concatenate([getattr(f, name) for f in features]),
            offsets_of([getattr(f, name).shape[0] for f in features]),
        )
        for name in ("tables", "joins", "predicates")
    ]
    return TrainingSet(*sets, labels)


def dense_rows(packed, positions=None) -> np.ndarray:
    """A :class:`~repro.core.featurization.PackedSet`'s float64 feature
    rows (all, or those at ``positions``), assembled here from its
    blocks: ``rows``, then the boolean ``bitmaps`` as 0.0/1.0."""
    index = slice(None) if positions is None else positions
    if packed.bitmaps is None:
        return packed.rows[index]
    return np.concatenate(
        [packed.rows[index], packed.bitmaps[index].astype(np.float64)], axis=1
    )


class WatchedExecutor:
    """An engine executor wrapper for concurrency tests.

    Counts concurrent ``run`` entries (``active``, ``peak``, ``runs``),
    stays ``dwell`` seconds inside each run to widen any overlap, can
    hold every round at ``gate`` until the test sets it (``hold=True``;
    ``entered`` is set once a round is inside), and can raise once
    instead of answering (``fail_once=True``).  Install it with
    ``engine.executor = WatchedExecutor(engine.executor)``; everything
    else is delegated to the wrapped executor.
    """

    def __init__(self, inner, *, dwell=0.0, hold=False, fail_once=False):
        self.inner = inner
        self.dwell = dwell
        self.entered = threading.Event()
        self.gate = threading.Event()
        if not hold:
            self.gate.set()
        self._fail = fail_once
        self._lock = threading.Lock()
        self.active = 0
        self.peak = 0
        self.runs = 0

    def run(self, engine, jobs):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.runs += 1
            fail, self._fail = self._fail, False
        try:
            self.entered.set()
            self.gate.wait(60.0)  # a failed test must not hang the engine
            if self.dwell:
                time.sleep(self.dwell)
            if fail:
                raise RuntimeError("injected executor fault")
            self.inner.run(engine, jobs)
        finally:
            with self._lock:
                self.active -= 1

    def __getattr__(self, name):
        return getattr(self.inner, name)
