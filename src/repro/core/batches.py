"""Batches of featurized queries: padded for serving, packed for training.

MSCN consumes whole sets per query, and queries differ in set sizes.

* **Serving** collates a micro-batch into padded tensors
  (:func:`collate`): each set is padded to the batch maximum and a
  mask marks the real elements (the model's masked mean honors it).
  :class:`CollateScratch` is a thread-local pool of those buffers,
  keyed by (shape, dtype), so hot serving loops that collate the same
  batch shapes over and over (``DeepSketch.estimate``/``estimate_many``)
  stop allocating six fresh arrays per call.
* **Training** keeps the whole dataset packed (:class:`TrainingSet`):
  per set, the real rows of every query back to back plus per-query
  offsets (:class:`~repro.core.featurization.PackedSet`), as the build's
  featurizer writes them; the table set keeps its sample bitmaps as
  booleans beside its float64 one-hots.  The dataset is never copied:
  the train/validation split is two vectors of query indices
  (:func:`split_rows`), a minibatch is a slice of one epoch's order over
  them (:func:`batch_indices`), and the training session gathers those
  queries' rows straight from the packed arrays into float64 GEMM
  operands, so no epoch copies or pads the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import TrainingError
from ..pools import DEFAULT_MAX_SHAPES, ArrayPool
from ..rng import SeedLike, make_rng
from .featurization import PackedSet, QueryFeatures

#: A scratch pool holding more distinct (shape, dtype) buffers than this
#: is cleared — a backstop against unbounded shape churn.
MAX_SCRATCH_SHAPES = DEFAULT_MAX_SHAPES


@dataclass
class Batch:
    """Dense batch: three padded feature tensors plus their masks."""

    tables: np.ndarray          # (B, S_t, table_dim)
    table_mask: np.ndarray      # (B, S_t)
    joins: np.ndarray           # (B, S_j, join_dim)
    join_mask: np.ndarray       # (B, S_j)
    predicates: np.ndarray      # (B, S_p, predicate_dim)
    predicate_mask: np.ndarray  # (B, S_p)

    @property
    def size(self) -> int:
        return self.tables.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.tables.dtype

    def astype(self, dtype) -> "Batch":
        """This batch with every array converted to ``dtype`` (copies)."""
        dtype = np.dtype(dtype)
        return Batch(
            tables=self.tables.astype(dtype),
            table_mask=self.table_mask.astype(dtype),
            joins=self.joins.astype(dtype),
            join_mask=self.join_mask.astype(dtype),
            predicates=self.predicates.astype(dtype),
            predicate_mask=self.predicate_mask.astype(dtype),
        )


class CollateScratch(ArrayPool):
    """Thread-local pool of zeroed collation buffers, keyed by shape+dtype.

    ``collate(..., scratch=...)`` draws its output arrays from here
    instead of allocating: a repeated batch shape reuses (and re-zeroes)
    the same buffers.  The returned :class:`Batch` therefore aliases the
    pool — it is valid until the **same thread** collates again, which
    is exactly the lifetime of a serving micro-batch (collate, run the
    model, read out the predictions).  Buffers are per-thread, so
    concurrent callers never share scratch space.  (The ``tag`` passed
    by :func:`_pad_set` keeps same-shaped sets — e.g. joins and
    predicates with equal dims — from aliasing within one collation.)
    """

    def __init__(self):
        super().__init__(zeroed=True, max_shapes=MAX_SCRATCH_SHAPES)


def _pad_set(
    rows: list[np.ndarray],
    dtype=np.float64,
    scratch: CollateScratch | None = None,
    tag: str = "",
) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length (s_i, d) arrays into (B, max_s, d) + mask.

    ``dtype`` sets the output arrays' type (float64 default, float32
    opt-in for the compiled inference path); ``scratch`` reuses pooled
    buffers instead of allocating.  ``tag`` keeps the data and mask of
    different sets from colliding on equal shapes in the pool.
    """
    max_s = max(r.shape[0] for r in rows)
    dim = rows[0].shape[1]
    if scratch is not None:
        data = scratch.array((len(rows), max_s, dim), dtype, tag=f"{tag}.data")
        mask = scratch.array((len(rows), max_s), dtype, tag=f"{tag}.mask")
    else:
        data = np.zeros((len(rows), max_s, dim), dtype=dtype)
        mask = np.zeros((len(rows), max_s), dtype=dtype)
    for i, r in enumerate(rows):
        data[i, : r.shape[0], :] = r
        mask[i, : r.shape[0]] = 1.0
    return data, mask


def collate(
    features: Sequence[QueryFeatures],
    dtype=np.float64,
    scratch: CollateScratch | None = None,
) -> Batch:
    """Collate featurized queries into one padded batch.

    With ``scratch`` the batch's arrays are pooled buffers owned by the
    calling thread and valid until its next scratch collation — the
    zero-allocation path used by the serving hot loops.
    """
    if not features:
        raise TrainingError("cannot collate an empty batch")
    dims = {(f.tables.shape[1], f.joins.shape[1], f.predicates.shape[1]) for f in features}
    if len(dims) != 1:
        raise TrainingError(f"inconsistent feature dimensions in batch: {dims}")
    tables, table_mask = _pad_set(
        [f.tables for f in features], dtype, scratch, tag="tables"
    )
    joins, join_mask = _pad_set(
        [f.joins for f in features], dtype, scratch, tag="joins"
    )
    predicates, predicate_mask = _pad_set(
        [f.predicates for f in features], dtype, scratch, tag="predicates"
    )
    return Batch(tables, table_mask, joins, join_mask, predicates, predicate_mask)


class TrainingSet:
    """Featurized queries, packed per set, plus normalized labels.

    Training reads it by query index (:func:`split_rows`,
    :func:`batch_indices`) and never copies it.
    """

    def __init__(
        self,
        tables: PackedSet,
        joins: PackedSet,
        predicates: PackedSet,
        labels: np.ndarray,  # normalized log labels in [0, 1]
    ):
        self.tables, self.joins, self.predicates = tables, joins, predicates
        self.labels = np.asarray(labels, dtype=np.float64)
        sizes = {len(tables), len(joins), len(predicates)}
        if sizes != {len(self.labels)}:
            raise TrainingError(
                f"feature sets of {sorted(sizes)} queries but {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.labels)


def split_rows(
    n: int, validation_fraction: float, seed: SeedLike = None
) -> tuple[np.ndarray, np.ndarray]:
    """A shuffled train/validation split of queries ``0 .. n-1``: the
    training queries' indices, then the validation queries'."""
    if not 0.0 < validation_fraction < 1.0:
        raise TrainingError(
            f"validation fraction must be in (0, 1), got {validation_fraction}"
        )
    order = make_rng(seed).permutation(n)
    n_val = max(int(round(n * validation_fraction)), 1)
    if n_val >= n:
        raise TrainingError("training set too small to split")
    return order[n_val:], order[:n_val]


def batch_indices(
    rows: np.ndarray, batch_size: int, shuffle: bool = True, seed: SeedLike = None
) -> Iterator[np.ndarray]:
    """Yield each minibatch of the queries ``rows``: consecutive
    ``batch_size`` slices of one epoch's order over them (a shuffle of
    their positions, or ``rows`` as given)."""
    if batch_size <= 0:
        raise TrainingError(f"batch size must be positive, got {batch_size}")
    if shuffle:
        order = np.arange(rows.size)
        make_rng(seed).shuffle(order)
        rows = rows[order]
    for start in range(0, rows.size, batch_size):
        yield rows[start : start + batch_size]
