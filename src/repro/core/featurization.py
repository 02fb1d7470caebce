"""Query featurization for the MSCN model (paper Section 2).

"The featurization of a query is very straightforward.  Based on the
training data, we enumerate tables, columns, joins, and predicate types
(=, <, and >) and represent them as unique one-hot vectors.  We
represent each literal in a query as a value val (val ∈ [0, 1]),
normalized using the minimum and maximum values of the respective
column.  Similarly, we logarithmize and then normalize cardinalities
(labels) using the maximum cardinality present in the training data."

A query becomes three sets of feature vectors:

* **table set** — one-hot table id ⊕ the table's qualifying-sample
  bitmap (so runtime sampling information enters the model);
* **join set** — one-hot join id (joins are identified by their
  table-level signature, e.g. ``movie_keyword.movie_id=title.id``);
* **predicate set** — one-hot column ⊕ one-hot operator ⊕ normalized
  literal value.

Empty join/predicate sets are encoded as a single all-zero element with
an active mask bit, following the reference implementation.

String literals are featurized via their dictionary codes, min–max
normalized over the code domain (the original MSCN handles only numeric
columns; dictionary encoding is the standard extension and is what the
demo relies on for columns like ``keyword.keyword``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import FeaturizationError
from ..db.batch import QueryBatch, offsets_of, segment_rows
from ..db.database import Database
from ..db.types import DType
from ..db.query import Query
from ..workload.generator import WorkloadSpec


@dataclass(frozen=True)
class QueryFeatures:
    """The three feature sets of one query."""

    tables: np.ndarray      # (n_tables, table_dim)
    joins: np.ndarray       # (n_joins or 1, join_dim)
    predicates: np.ndarray  # (n_predicates or 1, predicate_dim)


class PackedSet:
    """One feature set of many queries, packed: only real rows, no padding.

    ``rows`` holds every query's rows, query after query; query ``i``'s
    are ``rows[offsets[i]:offsets[i + 1]]``.  ``width`` is the largest
    set, the size :func:`~repro.core.batches.collate` would pad to.
    """

    __slots__ = ("rows", "offsets", "width")

    def __init__(self, rows: np.ndarray, offsets: np.ndarray):
        self.rows = rows
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.width = int(np.diff(self.offsets).max(initial=0))

    def __len__(self) -> int:
        return self.offsets.size - 1

    def take(self, index: np.ndarray) -> "PackedSet":
        """Queries ``index``, in that order."""
        counts = self.offsets[index + 1] - self.offsets[index]
        return PackedSet(self.rows[segment_rows(self.offsets, index)], offsets_of(counts))


def _one_hot(index: int, size: int) -> np.ndarray:
    vec = np.zeros(size)
    vec[index] = 1.0
    return vec


def _canonical_join(side_a: str, side_b: str) -> str:
    """Order-independent join signature ``min=max`` over the two sides."""
    first, second = sorted([side_a, side_b])
    return f"{first}={second}"


class _BatchRowMemo:
    """Feature rows shared across one featurization batch.

    Rows are reused read-only (``np.stack``/``np.concatenate`` copy), so
    sharing is safe and keeps batched featurization numerically
    identical to the per-query path.  ``predicate_prefixes`` memoizes
    the literal-independent part of a predicate row (column one-hot ⊕
    operator one-hot) keyed by ``(column key, op)``; ``predicate_rows``
    memoizes full rows including the normalized literal.
    """

    __slots__ = ("table_onehots", "join_rows", "predicate_rows", "predicate_prefixes")

    def __init__(self):
        self.table_onehots: dict[str, np.ndarray] = {}
        self.join_rows: dict[str, np.ndarray] = {}
        self.predicate_rows: dict[tuple, np.ndarray] = {}
        self.predicate_prefixes: dict[tuple, np.ndarray] = {}


def template_key(query: Query) -> tuple:
    """Canonical *shape* of a query: everything except predicate literals.

    Two queries share a template when they touch the same tables (with
    the same aliases), the same join edges, and the same
    ``(alias, column, op)`` predicate slots — the classic parameterized
    workload ("same query, different constants").  All structure-derived
    feature rows are a pure function of the template (plus the
    featurizer's vocabularies); only the normalized-literal slot of each
    predicate row depends on the constants.  The serving layer's shared
    feature cache (:mod:`repro.serve.feature_cache`) is keyed by this.
    """
    return (
        query.tables,
        query.joins,
        tuple((p.alias, p.column, p.op) for p in query.predicates),
    )


@dataclass(frozen=True)
class TemplateFeatures:
    """Literal-independent feature structure of one query template.

    Everything here is a pure function of ``template_key(query)`` and
    the owning featurizer's vocabularies, so it can be cached across
    queries (and across time) and shared read-only:

    * ``table_onehots`` — one-hot table ids aligned with the query's
      canonically sorted table refs (bitmaps are appended per query);
    * ``joins`` — the complete stacked join feature array (no
      per-query component at all);
    * ``predicate_prefixes`` — column one-hot ⊕ operator one-hot per
      predicate slot, aligned with the query's canonical predicate
      order (the normalized literal is appended per query);
    * ``predicate_keys`` — the ``"table.column"`` key per slot, so the
      assembly step can normalize literals without re-deriving them.

    ``featurizer`` pins the vocabulary the rows were built against; a
    cache hit is only valid when it is *the same object* (a rebuilt
    sketch gets a fresh featurizer, invalidating entries by identity).
    """

    featurizer: "Featurizer"
    table_onehots: tuple[np.ndarray, ...]
    joins: np.ndarray
    predicate_prefixes: tuple[np.ndarray, ...]
    predicate_keys: tuple[str, ...]


@dataclass
class Featurizer:
    """Vocabularies and normalization constants for one sketch.

    Construction enumerates the vocabularies from a database and a
    workload spec (equivalent to enumerating them from training data,
    but deterministic and closed under everything the generator can
    produce).  Label bounds are fitted on training labels via
    :meth:`fit_labels`.
    """

    tables: list[str]
    joins: list[str]
    columns: list[str]                    # "table.column" keys
    operators: list[str]
    sample_size: int
    column_bounds: dict[str, tuple[float, float]]
    min_log_label: float = 0.0
    max_log_label: float = 1.0
    #: Ablation switch: with ``use_bitmaps=False`` the table features
    #: carry only the one-hot table id (the "static features only" MSCN
    #: variant) — the paper's runtime-sampling input is disabled.
    use_bitmaps: bool = True

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        db: Database,
        spec: WorkloadSpec,
        sample_size: int,
        use_bitmaps: bool = True,
    ) -> "Featurizer":
        tables = sorted(spec.tables)
        joins = sorted(
            _canonical_join(f"{fk.table}.{fk.column}", f"{fk.ref_table}.{fk.ref_column}")
            for fk in db.foreign_keys
            if fk.table in spec.tables and fk.ref_table in spec.tables
        )
        columns = []
        bounds: dict[str, tuple[float, float]] = {}
        for table_name in tables:
            for column_name in spec.columns_of(table_name):
                key = f"{table_name}.{column_name}"
                columns.append(key)
                bounds[key] = db.table(table_name).column(column_name).min_max()
        # The operator vocabulary is the engine's full set (not just the
        # generator's): the demo serves year-grouping templates by
        # issuing >=/< range queries against the sketch, so those
        # operators must be featurizable even if training only
        # exercised {=, <, >}.
        from ..ops import OPERATORS

        return cls(
            tables=tables,
            joins=joins,
            columns=sorted(columns),
            operators=sorted(OPERATORS),
            sample_size=sample_size,
            column_bounds=bounds,
            use_bitmaps=use_bitmaps,
        )

    # ------------------------------------------------------------------
    # dimensions
    # ------------------------------------------------------------------
    @property
    def table_dim(self) -> int:
        return len(self.tables) + self.sample_size

    @property
    def join_dim(self) -> int:
        return max(len(self.joins), 1)

    @property
    def predicate_dim(self) -> int:
        return len(self.columns) + len(self.operators) + 1

    # ------------------------------------------------------------------
    # label normalization
    # ------------------------------------------------------------------
    def fit_labels(self, cardinalities: np.ndarray) -> None:
        """Fit min/max of log labels from training cardinalities."""
        cards = np.maximum(np.asarray(cardinalities, dtype=np.float64), 1.0)
        if cards.size == 0:
            raise FeaturizationError("cannot fit labels on an empty training set")
        logs = np.log(cards)
        low, high = float(logs.min()), float(logs.max())
        if high <= low:
            high = low + 1.0  # degenerate training set; keep the map invertible
        self.min_log_label = low
        self.max_log_label = high

    @property
    def log_label_span(self) -> float:
        return self.max_log_label - self.min_log_label

    def normalize_label(self, cardinality):
        """Map cardinalities to [0, 1] (log scale, clipped).

        Accepts a scalar (returns ``float``) or an array of any shape
        (returns a float64 array, elementwise identical to the scalar
        path) — the serving and training pipelines pass whole label
        vectors through in one call instead of a Python loop.
        """
        cards = np.maximum(np.asarray(cardinality, dtype=np.float64), 1.0)
        norm = np.clip(
            (np.log(cards) - self.min_log_label) / self.log_label_span, 0.0, 1.0
        )
        if norm.ndim == 0:
            return float(norm)
        return norm

    def denormalize_label(self, value):
        """Inverse of :meth:`normalize_label` (scalar or array, like it)."""
        value = np.clip(np.asarray(value, dtype=np.float64), 0.0, 1.0)
        cards = np.exp(value * self.log_label_span + self.min_log_label)
        if cards.ndim == 0:
            return float(cards)
        return cards

    # ------------------------------------------------------------------
    # literal normalization
    # ------------------------------------------------------------------
    def normalize_literal(self, db_column, key: str, literal) -> float:
        """Map a literal to [0, 1] over the column's value bounds.

        An ``in`` tuple featurizes as the mean of its members' normalized
        values — the one-slot summary of the member set; the exact
        membership semantics still reach the model through the
        qualifying-sample bitmaps.
        """
        if isinstance(literal, tuple):
            if not literal:
                raise FeaturizationError("cannot featurize an empty 'in' literal")
            values = [
                self.normalize_literal(db_column, key, member) for member in literal
            ]
            return float(np.mean(values))
        low, high = self.column_bounds[key]
        if db_column is not None and db_column.dtype is DType.STRING:
            code = db_column.encode_literal(literal)
            raw = float(code) if code is not None else low
        else:
            raw = float(literal)
        if high <= low:
            return 0.0
        return float(np.clip((raw - low) / (high - low), 0.0, 1.0))

    # ------------------------------------------------------------------
    # featurization
    # ------------------------------------------------------------------
    def _join_signature(self, query: Query, join) -> str:
        left_table = query.alias_table(join.left_alias)
        right_table = query.alias_table(join.right_alias)
        return _canonical_join(
            f"{left_table}.{join.left_column}",
            f"{right_table}.{join.right_column}",
        )

    def _index_maps(self) -> tuple[dict, dict, dict, dict]:
        """(table, join, column, operator) -> position lookups.

        Built once per featurizer: the vocabularies are fixed at
        construction, and rebuilding four dicts per featurized query is
        pure overhead on the estimation hot path.
        """
        maps = self.__dict__.get("_cached_index_maps")
        if maps is None:
            maps = (
                {t: i for i, t in enumerate(self.tables)},
                {j: i for i, j in enumerate(self.joins)},
                {c: i for i, c in enumerate(self.columns)},
                {o: i for i, o in enumerate(self.operators)},
            )
            self.__dict__["_cached_index_maps"] = maps
        return maps

    def featurize_query(
        self,
        query: Query,
        bitmaps: dict[str, np.ndarray],
        db: Database | None = None,
        template_cache=None,
    ) -> QueryFeatures:
        """Featurize one query given its per-alias sample bitmaps.

        ``db`` is needed only to encode string literals; purely numeric
        queries featurize without it.  ``template_cache`` (any object
        with the :class:`repro.serve.feature_cache.FeatureCache`
        ``lookup``/``store`` protocol) short-circuits structure-row
        construction for known templates.  Raises
        :class:`~repro.errors.FeaturizationError` for anything outside
        the vocabularies (unknown table, join, column, or operator).
        """
        return self._featurize_one(query, bitmaps, db, _BatchRowMemo(), template_cache)

    def featurize_batch(
        self,
        queries: Sequence[Query],
        bitmaps: Sequence[dict[str, np.ndarray]],
        db: Database | None = None,
        template_cache=None,
    ) -> list[QueryFeatures]:
        """Featurize a whole batch, sharing row construction work.

        ``bitmaps`` is aligned with ``queries`` (one per-alias dict per
        query, e.g. the output of
        :func:`repro.sampling.bitmaps.batch_bitmaps`).  Join and
        predicate feature rows are memoized across the batch — serving
        workloads repeat join signatures and literals heavily — and the
        resulting features are numerically identical to per-query
        :meth:`featurize_query` calls.  With a ``template_cache``, the
        memoization additionally persists *across* batches, keyed by
        :func:`template_key`.
        """
        if len(queries) != len(bitmaps):
            raise FeaturizationError(
                f"{len(queries)} queries but {len(bitmaps)} bitmap sets"
            )
        memo = _BatchRowMemo()
        return [
            self._featurize_one(query, query_bitmaps, db, memo, template_cache)
            for query, query_bitmaps in zip(queries, bitmaps)
        ]

    def featurize_packed(
        self, batch: QueryBatch, bitmaps: np.ndarray, db: Database
    ) -> tuple[PackedSet, PackedSet, PackedSet]:
        """The table, join and predicate sets of a whole batch, packed.

        ``bitmaps`` holds one sample bitmap per table-set row
        (:meth:`~repro.db.batch.QueryBatch.table_offsets`), e.g. from
        :func:`~repro.db.executor.label_batch`.  Every row is written
        straight into its set's array and equals, bit for bit, the row
        :meth:`featurize_batch` builds for it; an empty join or
        predicate set is its one all-zero row.
        """
        table_index, join_index, column_index, op_index = self._index_maps()
        n_tables, n_columns = len(self.tables), len(self.columns)
        if bitmaps.shape[1:] != (self.sample_size,):
            raise FeaturizationError(
                f"bitmaps have shape {bitmaps.shape}, expected (rows, {self.sample_size})"
            )
        # Per structure: its table ids, join ids (-1 = the empty-set row)
        # and each alias's table.
        table_ids, join_ids, alias_tables = [], [], []
        memo = _BatchRowMemo()
        for structure in batch.structures:
            self._build_template(structure, memo)  # vocabulary check
            table_ids.append([table_index[ref.table] for ref in structure.tables])
            join_ids.append(
                [join_index[self._join_signature(structure, j)] for j in structure.joins]
                or [-1]
            )
            alias_tables.append({ref.alias: ref.table for ref in structure.tables})

        structure_of = batch.structure.tolist()
        table_rows = [i for s in structure_of for i in table_ids[s]]
        tables = np.zeros((len(table_rows), n_tables + self.sample_size))
        tables[np.arange(len(table_rows)), table_rows] = 1.0
        if self.use_bitmaps:
            tables[:, n_tables:] = bitmaps
        join_rows = np.array([i for s in structure_of for i in join_ids[s]], dtype=np.int64)
        joins = np.zeros((join_rows.size, self.join_dim))
        real = np.flatnonzero(join_rows >= 0)
        joins[real, join_rows[real]] = 1.0

        # Predicate rows: one per predicate, and an all-zero row for
        # each query without any.
        counts = np.diff(batch.offsets)
        pred_offsets = offsets_of(np.maximum(counts, 1))
        slots = segment_rows(pred_offsets, np.flatnonzero(counts))
        predicates = np.zeros((int(pred_offsets[-1]), self.predicate_dim))
        columns, ops, low, high, raw, in_values = [], [], [], [], [], []
        for row, (q, alias, column, op, literal) in enumerate(zip(
            batch.query.tolist(), batch.alias, batch.column, batch.op, batch.literal
        )):
            table_name = alias_tables[structure_of[q]][alias]
            key = f"{table_name}.{column}"
            if key not in column_index:
                raise FeaturizationError(
                    f"predicate column {key!r} is outside this sketch's vocabulary"
                )
            if op not in op_index:
                raise FeaturizationError(
                    f"operator {op!r} is outside this sketch's vocabulary {self.operators}"
                )
            columns.append(column_index[key])
            ops.append(op_index[op])
            bounds = self.column_bounds[key]
            low.append(bounds[0])
            high.append(bounds[1])
            db_column = db.table(table_name).column(column)
            if isinstance(literal, tuple):  # 'in': set below, as normalize_literal does
                in_values.append((row, self.normalize_literal(db_column, key, literal)))
                raw.append(bounds[0])
            elif db_column.dtype is DType.STRING:
                code = db_column.encode_literal(literal)
                raw.append(float(code) if code is not None else bounds[0])
            else:
                raw.append(float(literal))
        low, high, raw = np.array(low), np.array(high), np.array(raw)
        # normalize_literal's arithmetic, elementwise: 0 for a constant column.
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(
                high <= low, 0.0, np.clip((raw - low) / (high - low), 0.0, 1.0)
            )
        for row, value in in_values:
            values[row] = value
        predicates[slots, columns] = 1.0
        predicates[slots, n_columns + np.array(ops, dtype=np.int64)] = 1.0
        predicates[slots, -1] = values
        return (
            PackedSet(tables, batch.table_offsets()),
            PackedSet(joins, offsets_of([len(join_ids[s]) for s in structure_of])),
            PackedSet(predicates, pred_offsets),
        )

    def _featurize_one(
        self,
        query: Query,
        bitmaps: dict[str, np.ndarray],
        db: Database | None,
        memo: "_BatchRowMemo",
        template_cache=None,
    ) -> QueryFeatures:
        template = None
        if template_cache is not None:
            key = template_key(query)
            template = template_cache.lookup(self, key)
        if template is None:
            template = self._build_template(query, memo)
            if template_cache is not None:
                template_cache.store(self, key, template)
        return self._assemble(template, query, bitmaps, db, memo)

    def _build_template(self, query: Query, memo: "_BatchRowMemo") -> TemplateFeatures:
        """Build the literal-independent structure rows for ``query``.

        This is the vocabulary-validation point: unknown tables, joins,
        columns, and operators raise here, before any per-query work.
        """
        table_index, join_index, column_index, op_index = self._index_maps()

        table_onehots = []
        for ref in sorted(query.tables):
            if ref.table not in table_index:
                raise FeaturizationError(
                    f"table {ref.table!r} is outside this sketch's vocabulary "
                    f"{self.tables}"
                )
            onehot = memo.table_onehots.get(ref.table)
            if onehot is None:
                onehot = _one_hot(table_index[ref.table], len(self.tables))
                memo.table_onehots[ref.table] = onehot
            table_onehots.append(onehot)

        if query.joins:
            join_rows = []
            for join in query.joins:
                signature = self._join_signature(query, join)
                row = memo.join_rows.get(signature)
                if row is None:
                    if signature not in join_index:
                        raise FeaturizationError(
                            f"join {signature!r} is outside this sketch's vocabulary"
                        )
                    row = _one_hot(join_index[signature], self.join_dim)
                    memo.join_rows[signature] = row
                join_rows.append(row)
            joins = np.stack(join_rows, axis=0)
        else:
            joins = np.zeros((1, self.join_dim))

        prefixes = []
        keys = []
        for pred in query.predicates:
            table_name = query.alias_table(pred.alias)
            key = f"{table_name}.{pred.column}"
            prefix = memo.predicate_prefixes.get((key, pred.op))
            if prefix is None:
                if key not in column_index:
                    raise FeaturizationError(
                        f"predicate column {key!r} is outside this sketch's "
                        "vocabulary"
                    )
                if pred.op not in op_index:
                    raise FeaturizationError(
                        f"operator {pred.op!r} is outside this sketch's "
                        f"vocabulary {self.operators}"
                    )
                prefix = np.concatenate(
                    [
                        _one_hot(column_index[key], len(self.columns)),
                        _one_hot(op_index[pred.op], len(self.operators)),
                    ]
                )
                memo.predicate_prefixes[(key, pred.op)] = prefix
            prefixes.append(prefix)
            keys.append(key)

        return TemplateFeatures(
            featurizer=self,
            table_onehots=tuple(table_onehots),
            joins=joins,
            predicate_prefixes=tuple(prefixes),
            predicate_keys=tuple(keys),
        )

    def _assemble(
        self,
        template: TemplateFeatures,
        query: Query,
        bitmaps: dict[str, np.ndarray],
        db: Database | None,
        memo: "_BatchRowMemo",
    ) -> QueryFeatures:
        """Combine cached structure rows with per-query bitmaps/literals.

        Only the per-query inputs are touched here — sample bitmaps for
        the table set, normalized literals for the predicate set — so a
        template-cache hit costs exactly the work that *cannot* be
        shared between two instances of the same template.  The arrays
        produced are bit-identical to an uncached featurization: rows
        are assembled by the same ``np.concatenate`` calls on the same
        operands.
        """
        table_rows = []
        for onehot, ref in zip(template.table_onehots, sorted(query.tables)):
            bitmap = bitmaps.get(ref.alias)
            if bitmap is None:
                raise FeaturizationError(f"missing bitmap for alias {ref.alias!r}")
            bitmap = np.asarray(bitmap, dtype=np.float64)
            if bitmap.shape != (self.sample_size,):
                raise FeaturizationError(
                    f"bitmap for {ref.alias!r} has shape {bitmap.shape}, "
                    f"expected ({self.sample_size},)"
                )
            if not self.use_bitmaps:
                bitmap = np.zeros_like(bitmap)
            table_rows.append(np.concatenate([onehot, bitmap]))
        tables = np.stack(table_rows, axis=0)

        if query.predicates:
            pred_rows = []
            for prefix, key, pred in zip(
                template.predicate_prefixes, template.predicate_keys, query.predicates
            ):
                memo_key = (key, pred.op, pred.literal)
                row = memo.predicate_rows.get(memo_key)
                if row is None:
                    db_column = (
                        db.table(query.alias_table(pred.alias)).column(pred.column)
                        if db is not None
                        else None
                    )
                    value = self.normalize_literal(db_column, key, pred.literal)
                    row = np.concatenate([prefix, np.array([value])])
                    memo.predicate_rows[memo_key] = row
                pred_rows.append(row)
            predicates = np.stack(pred_rows, axis=0)
        else:
            predicates = np.zeros((1, self.predicate_dim))

        return QueryFeatures(
            tables=tables, joins=template.joins, predicates=predicates
        )

    # ------------------------------------------------------------------
    # serialization (the featurizer travels inside the sketch payload)
    # ------------------------------------------------------------------
    def to_manifest(self) -> dict:
        return {
            "tables": self.tables,
            "joins": self.joins,
            "columns": self.columns,
            "operators": self.operators,
            "sample_size": self.sample_size,
            "column_bounds": {k: list(v) for k, v in self.column_bounds.items()},
            "min_log_label": self.min_log_label,
            "max_log_label": self.max_log_label,
            "use_bitmaps": self.use_bitmaps,
        }

    @classmethod
    def from_manifest(cls, manifest: dict) -> "Featurizer":
        try:
            return cls(
                tables=list(manifest["tables"]),
                joins=list(manifest["joins"]),
                columns=list(manifest["columns"]),
                operators=list(manifest["operators"]),
                sample_size=int(manifest["sample_size"]),
                column_bounds={
                    k: (float(v[0]), float(v[1]))
                    for k, v in manifest["column_bounds"].items()
                },
                min_log_label=float(manifest["min_log_label"]),
                max_log_label=float(manifest["max_log_label"]),
                use_bitmaps=bool(manifest.get("use_bitmaps", True)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FeaturizationError(f"malformed featurizer manifest: {exc}") from exc
