"""Uniform training-query generation (paper Figure 1a, step 2).

"We generate uniformly distributed training queries on the specified
tables": uniformly choose the number of joins, grow a connected join
subgraph along foreign keys, uniformly choose predicate columns and
types (=, <, >), and draw literals from the database itself so that
equality predicates hit existing values.

The generator is purely syntactic — labels (true cardinalities) and the
zero-cardinality filter are applied later by the sketch builder, exactly
as the demo's backend executes generated queries in a separate step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import QueryError
from ..rng import SeedLike, make_rng
from ..db.database import Database
from ..db.types import DType
from ..db.batch import QueryBatch
from .query import JoinEdge, Query, TableRef


#: Operators the uniform generator draws for numeric columns (the paper
#: trains "with a uniform distribution between =, <, and > predicates");
#: string columns always get ``=``.
TRAINING_OPERATORS = ("=", "<", ">")

#: Upper bound on predicates drawn per table, by this generator and by
#: the template-suite generator (:mod:`repro.workload.suite`) alike.
MAX_PREDICATES_PER_TABLE = 2


@dataclass(frozen=True)
class WorkloadSpec:
    """What the generator may use: tables, aliases, predicate columns.

    ``predicate_columns`` maps each table to the columns predicates may
    reference.
    """

    tables: tuple[str, ...]
    aliases: dict[str, str] = field(default_factory=dict)
    predicate_columns: dict[str, tuple[str, ...]] = field(default_factory=dict)
    max_joins: int = 2
    #: How equality literals are drawn: "rows" samples a random row value
    #: (frequent values appear often — the reference implementation's
    #: behaviour), "distinct" samples uniformly over the distinct values
    #: (tail values appear as often as heads), "mixed" flips a coin per
    #: literal.  "mixed" exposes the model to the 0-tuple regime during
    #: training, which the paper's Section 2 highlights.
    literal_distribution: str = "mixed"

    def alias_of(self, table: str) -> str:
        return self.aliases.get(table, table)

    def columns_of(self, table: str) -> tuple[str, ...]:
        return self.predicate_columns.get(table, ())


def build_neighbor_map(
    db: Database, spec: WorkloadSpec
) -> dict[str, list[tuple[str, str, str]]]:
    """table -> [(neighbor_table, own_column, neighbor_column)].

    The database's FK graph restricted to the spec's tables, in both
    directions; shared by the uniform generator and the templated suite
    generator (:mod:`repro.workload.suite`).
    """
    allowed = set(spec.tables)
    neighbors: dict[str, list[tuple[str, str, str]]] = {t: [] for t in allowed}
    for fk in db.foreign_keys:
        if fk.table in allowed and fk.ref_table in allowed:
            neighbors[fk.table].append((fk.ref_table, fk.column, fk.ref_column))
            neighbors[fk.ref_table].append((fk.table, fk.ref_column, fk.column))
    return neighbors


def build_literal_pools(
    db: Database, spec: WorkloadSpec
) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
    """Value pools per (table, column) for literal drawing.

    "Draw literals from database" — each pool holds the raw row
    values (frequency-weighted drawing) and the distinct values
    (uniform drawing); ``spec.literal_distribution`` picks between
    them per draw.
    """
    pools: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
    for table_name in spec.tables:
        table = db.table(table_name)
        for column_name in spec.columns_of(table_name):
            col = table.column(column_name)
            pool = col.non_null_values()
            if pool.size == 0:
                raise QueryError(
                    f"column {table_name}.{column_name} has no non-null "
                    "values to draw literals from"
                )
            pools[(table_name, column_name)] = (pool, np.unique(pool))
    return pools


def decode_pool_value(db: Database, table: str, column: str, raw):
    """Convert a raw pool value back into a python literal for ``column``."""
    col = db.table(table).column(column)
    if col.dtype is DType.STRING:
        return col.dictionary[int(raw)]
    if col.dtype is DType.INT64:
        return int(raw)
    return float(raw)


class TrainingQueryGenerator:
    """Draws uniformly distributed conjunctive COUNT(*) queries.

    The join structure follows the database's FK graph restricted to the
    spec's tables: a start table is chosen uniformly, then edges to
    not-yet-included tables are added uniformly until the drawn join
    count is reached (or no edge extends the subgraph).

    :meth:`draw_batch` writes the draws straight into a
    :class:`~repro.db.batch.QueryBatch`; :meth:`draw` and
    :meth:`draw_many` are the same stream as :class:`Query` objects.
    """

    def __init__(self, db: Database, spec: WorkloadSpec, seed: SeedLike = None):
        self.db = db
        self.spec = spec
        self.rng = make_rng(seed)
        for table in spec.tables:
            if table not in db.tables:
                raise QueryError(f"workload spec references unknown table {table!r}")
        self._neighbors = build_neighbor_map(db, spec)
        pools = build_literal_pools(db, spec)
        # Per table, per predicate column: what one predicate draw reads.
        self._columns: dict[str, tuple[_ColumnDraw, ...]] = {
            table: tuple(
                _ColumnDraw(db, spec, table, column, *pools[(table, column)])
                for column in spec.columns_of(table)
            )
            for table in spec.tables
        }
        self._frontiers: dict[tuple[str, ...], list[tuple[str, str, str, str]]] = {}
        self._structures: dict[tuple, Query] = {}

    # ------------------------------------------------------------------
    # drawing
    # ------------------------------------------------------------------
    def _frontier(self, tables: tuple[str, ...]) -> list[tuple[str, str, str, str]]:
        """Edges from ``tables`` to a table not yet in it, in draw order."""
        frontier = self._frontiers.get(tables)
        if frontier is None:
            frontier = self._frontiers[tables] = [
                (table, own_col, neighbor, other_col)
                for table in tables
                for neighbor, own_col, other_col in self._neighbors[table]
                if neighbor not in tables
            ]
        return frontier

    def _draw_join_structure(self) -> tuple[tuple[str, ...], Query]:
        """The drawn tables, in draw order, and their join structure."""
        rng = self.rng
        n_joins = int(rng.integers(0, self.spec.max_joins + 1))
        tables = (self.spec.tables[int(rng.integers(0, len(self.spec.tables)))],)
        picks: tuple = ()
        while len(picks) < n_joins:
            frontier = self._frontier(tables)
            if not frontier:
                break  # the drawn table's component is exhausted
            pick = frontier[int(rng.integers(0, len(frontier)))]
            tables += (pick[2],)
            picks += (pick,)
        key = (tables, picks)
        structure = self._structures.get(key)
        if structure is None:
            alias_of = self.spec.alias_of
            structure = self._structures[key] = Query(
                tables=tuple(TableRef(t, alias_of(t)) for t in tables),
                joins=tuple(
                    JoinEdge(alias_of(own_table), own_col, alias_of(neighbor), other_col)
                    for own_table, own_col, neighbor, other_col in picks
                ),
            )
        return tables, structure

    def draw_batch(self, n: int) -> QueryBatch:
        """Draw ``n`` queries (duplicates possible, as in the paper) as
        one batch."""
        if n < 0:
            raise QueryError(f"cannot draw {n} queries")
        integers, random, choice = self.rng.integers, self.rng.random, self.rng.choice
        mode = self.spec.literal_distribution
        ids: dict[Query, int] = {}
        structure, query, alias, column, op, literal = [], [], [], [], [], []
        drawn: list[tuple] = []
        for i in range(n):
            tables, shape = self._draw_join_structure()
            structure.append(ids.setdefault(shape, len(ids)))
            drawn.clear()
            for table in tables:
                columns = self._columns[table]
                if not columns:
                    continue
                max_preds = min(MAX_PREDICATES_PER_TABLE, len(columns))
                n_preds = int(integers(0, max_preds + 1))
                if n_preds == 0:
                    continue
                for idx in choice(len(columns), size=n_preds, replace=False).tolist():
                    draw = columns[idx]
                    if draw.string:
                        pred_op = "="
                    else:
                        pred_op = TRAINING_OPERATORS[int(integers(0, len(TRAINING_OPERATORS)))]
                    if mode == "mixed":
                        pool = draw.distinct if random() < 0.5 else draw.rows
                    elif mode == "distinct":
                        pool = draw.distinct
                    elif mode == "rows":
                        pool = draw.rows
                    else:
                        raise QueryError(f"unknown literal distribution {mode!r}")
                    value = draw.decode(pool[int(integers(0, len(pool)))])
                    drawn.append((draw.alias, draw.column, pred_op, value))
            # Query's canonical predicate order; (alias, column) is unique
            # within a draw, so the tuples never compare past it.
            drawn.sort()
            for pred_alias, pred_column, pred_op, pred_literal in drawn:
                query.append(i)
                alias.append(pred_alias)
                column.append(pred_column)
                op.append(pred_op)
                literal.append(pred_literal)
        return QueryBatch(list(ids), structure, query, alias, column, op, literal)

    def draw(self) -> Query:
        """Draw one query (possibly with zero true cardinality)."""
        return self.draw_batch(1).to_queries()[0]

    def draw_many(self, n: int) -> list[Query]:
        """Draw ``n`` queries (duplicates possible, as in the paper)."""
        return self.draw_batch(n).to_queries()


class _ColumnDraw:
    """One predicate column's draw inputs: its alias, whether it is a
    string column (``=`` only), its two literal pools and the decoder
    from a raw pool value to a python literal."""

    __slots__ = ("alias", "column", "string", "rows", "distinct", "decode")

    def __init__(self, db, spec, table, column, rows, distinct):
        col = db.table(table).column(column)
        self.alias = spec.alias_of(table)
        self.column = column
        self.string = col.dtype is DType.STRING
        self.rows, self.distinct = rows, distinct
        if self.string:
            dictionary = col.dictionary
            self.decode = lambda raw: dictionary[int(raw)]
        else:
            self.decode = int if col.dtype is DType.INT64 else float


def spec_for_imdb(tables: tuple[str, ...] | None = None, max_joins: int = 2) -> WorkloadSpec:
    """JOB-light-compatible workload spec over the synthetic IMDb."""
    from ..datasets.imdb import JOB_LIGHT_ALIASES, JOB_LIGHT_PREDICATE_COLUMNS

    tables = tables or tuple(sorted(JOB_LIGHT_ALIASES))
    return WorkloadSpec(
        tables=tuple(tables),
        aliases=dict(JOB_LIGHT_ALIASES),
        predicate_columns={
            t: JOB_LIGHT_PREDICATE_COLUMNS[t]
            for t in tables
            if t in JOB_LIGHT_PREDICATE_COLUMNS
        },
        max_joins=max_joins,
    )


def spec_for_imdb_templates(max_joins: int = 4) -> WorkloadSpec:
    """Template-suite spec over the synthetic IMDb: JOB-light plus the
    string-valued dimension tables, enabling deeper join chains
    (``title ⋈ movie_keyword ⋈ keyword``), self-joins (two
    ``movie_keyword`` copies through ``title``), and string predicates
    (``keyword.keyword``, ``company_name.country_code``)."""
    from ..datasets.imdb import JOB_LIGHT_ALIASES, JOB_LIGHT_PREDICATE_COLUMNS

    aliases = dict(JOB_LIGHT_ALIASES)
    aliases.update({"keyword": "k", "company_name": "cn"})
    predicate_columns = dict(JOB_LIGHT_PREDICATE_COLUMNS)
    predicate_columns.update(
        {"keyword": ("keyword",), "company_name": ("country_code",)}
    )
    return WorkloadSpec(
        tables=tuple(sorted(aliases)),
        aliases=aliases,
        predicate_columns=predicate_columns,
        max_joins=max_joins,
    )


def spec_for_tpch(tables: tuple[str, ...] | None = None, max_joins: int = 2) -> WorkloadSpec:
    """Workload spec over the synthetic TPC-H subset."""
    from ..datasets.tpch import TPCH_ALIASES, TPCH_PREDICATE_COLUMNS

    tables = tables or tuple(sorted(TPCH_PREDICATE_COLUMNS))
    return WorkloadSpec(
        tables=tuple(tables),
        aliases=dict(TPCH_ALIASES),
        predicate_columns={
            t: TPCH_PREDICATE_COLUMNS[t]
            for t in tables
            if t in TPCH_PREDICATE_COLUMNS
        },
        max_joins=max_joins,
    )
