"""The columnar build batch against the per-query paths it replaced.

A build draws a :class:`~repro.db.batch.QueryBatch`, labels it and
gathers its sample bitmaps in one pass (``label_batch``), featurizes it
into packed sets (``Featurizer.featurize_packed``) and trains on the
packed :class:`~repro.core.batches.TrainingSet`.  Each check here runs
the same inputs query by query, the way builds ran before, and asks for
the same values:

* the draw: a per-query generator kept here as the oracle, making the
  same RNG calls in the same order;
* the labels: ``count_hash_join`` (the materializing executor) and
  ``execute_count``, cyclic queries and a hand-written workload
  included;
* the bitmaps: ``batch_bitmaps`` on the materialized samples, tables
  smaller than the sample included;
* the features: the real rows of ``collate(featurize_batch(...))``, bit
  for bit, and the same rows again per minibatch of the index split
  (``split_rows``, ``batch_indices``);
* the training operand: the float64 table rows the training session
  gathers, against the dense rows the packed table set was once stored
  as (``dense_table_rows``, kept here as the oracle).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import MSCN, Featurizer, TrainingSet, collate
from repro.core.batches import batch_indices, split_rows
from repro.nn import TrainingSession
from repro.db import DType
from repro.db.batch import QueryBatch, segment_rows
from repro.db.executor import count_hash_join, execute_count, label_batch
from repro.sampling import batch_bitmaps, materialize_samples
from repro.workload import (
    JoinEdge,
    Predicate,
    Query,
    TableRef,
    TrainingQueryGenerator,
    WorkloadSpec,
    build_literal_pools,
    build_neighbor_map,
    spec_for_imdb,
    spec_for_tpch,
)
from repro.workload.generator import (
    MAX_PREDICATES_PER_TABLE,
    TRAINING_OPERATORS,
    decode_pool_value,
)
from tests.helpers import dense_rows

SAMPLE_SIZE = 60


def imdb_spec() -> WorkloadSpec:
    """JOB-light plus two tables smaller than the sample (7 and 4 rows),
    both with a string predicate column."""
    base = spec_for_imdb()
    return WorkloadSpec(
        tables=base.tables + ("company_type", "kind_type"),
        aliases={**base.aliases, "company_type": "ct", "kind_type": "kt"},
        predicate_columns={**base.predicate_columns, "company_type": ("kind",),
                           "kind_type": ("kind",)},
    )


SPECS = {"imdb": imdb_spec, "tpch": spec_for_tpch}
#: Each packed set with the padded batch's data and mask attributes.
SET_ARRAYS = (("tables", "table_mask"), ("joins", "join_mask"), ("predicates", "predicate_mask"))


@pytest.fixture(scope="module")
def fixtures(imdb_small, tpch_small):
    out = {}
    for name, db in (("imdb", imdb_small), ("tpch", tpch_small)):
        spec = SPECS[name]()
        samples = materialize_samples(db, spec.tables, SAMPLE_SIZE, seed=5)
        out[name] = (db, spec, samples)
    return out


class OracleGenerator:
    """The per-query draw that builds used before the columnar batch."""

    def __init__(self, db, spec, seed):
        self.db, self.spec = db, spec
        self.rng = np.random.default_rng(seed)
        self.neighbors = build_neighbor_map(db, spec)
        self.pools = build_literal_pools(db, spec)

    def draw(self) -> Query:
        rng, spec = self.rng, self.spec
        n_joins = int(rng.integers(0, spec.max_joins + 1))
        tables = [spec.tables[int(rng.integers(0, len(spec.tables)))]]
        joins = []
        while len(joins) < n_joins:
            frontier = [
                (table, own, neighbor, other)
                for table in tables
                for neighbor, own, other in self.neighbors[table]
                if neighbor not in tables
            ]
            if not frontier:
                break
            table, own, neighbor, other = frontier[int(rng.integers(0, len(frontier)))]
            tables.append(neighbor)
            joins.append(JoinEdge(spec.alias_of(table), own, spec.alias_of(neighbor), other))
        predicates = []
        for table in tables:
            columns = spec.columns_of(table)
            if not columns:
                continue
            n_preds = int(rng.integers(0, min(MAX_PREDICATES_PER_TABLE, len(columns)) + 1))
            if n_preds == 0:
                continue
            for idx in rng.choice(len(columns), size=n_preds, replace=False):
                column = columns[int(idx)]
                if self.db.table(table).column(column).dtype is DType.STRING:
                    op = "="
                else:
                    op = TRAINING_OPERATORS[int(rng.integers(0, len(TRAINING_OPERATORS)))]
                rows, distinct = self.pools[(table, column)]
                pool = distinct if rng.random() < 0.5 else rows
                raw = pool[int(rng.integers(0, len(pool)))]
                literal = decode_pool_value(self.db, table, column, raw)
                predicates.append(Predicate(spec.alias_of(table), column, op, literal))
        refs = tuple(TableRef(t, spec.alias_of(t)) for t in tables)
        return Query(tables=refs, joins=tuple(joins), predicates=tuple(predicates))


def drawn(fixtures, name, seed, n=80):
    db, spec, samples = fixtures[name]
    return db, spec, samples, TrainingQueryGenerator(db, spec, seed=seed).draw_batch(n)


def per_query_bitmaps(samples, queries) -> np.ndarray:
    """``batch_bitmaps`` flattened into table-set rows (canonical order)."""
    rows = [
        bitmaps[ref.alias]
        for query, bitmaps in zip(queries, batch_bitmaps(samples, queries))
        for ref in query.tables
    ]
    return np.array(rows, dtype=bool).reshape(len(rows), samples.sample_size)


def dense_table_rows(featurizer, batch, bitmaps) -> np.ndarray:
    """The table set as ``featurize_packed`` once stored it: one float64
    row per table-set row, the table one-hot then the sample bitmap
    (zeros with ``use_bitmaps`` off)."""
    table_index = {table: i for i, table in enumerate(featurizer.tables)}
    ids = [
        table_index[ref.table]
        for s in batch.structure.tolist()
        for ref in batch.structures[s].tables
    ]
    rows = np.zeros((len(ids), featurizer.table_dim))
    rows[np.arange(len(ids)), ids] = 1.0
    if featurizer.use_bitmaps:
        rows[:, len(featurizer.tables):] = bitmaps
    return rows


def featurizer_for(db, spec, labels) -> Featurizer:
    featurizer = Featurizer.build(db, spec, SAMPLE_SIZE)
    featurizer.fit_labels(np.maximum(labels, 1))
    return featurizer


seeds = st.integers(0, 2**31 - 1)
specs = st.sampled_from(sorted(SPECS))


@settings(max_examples=20, deadline=None)
@given(name=specs, seed=seeds)
def test_draw_batch_is_the_per_query_draw(fixtures, name, seed):
    db, spec, _ = fixtures[name]
    oracle = OracleGenerator(db, spec, seed)
    want = [oracle.draw() for _ in range(60)]
    batch = TrainingQueryGenerator(db, spec, seed=seed).draw_batch(60)
    assert batch.to_queries() == want
    assert TrainingQueryGenerator(db, spec, seed=seed).draw_many(60) == want
    assert QueryBatch.from_queries(want).to_queries() == want


@settings(max_examples=15, deadline=None)
@given(name=specs, seed=seeds)
def test_labels_and_bitmaps_equal_the_per_query_paths(fixtures, name, seed):
    db, _, samples, batch = drawn(fixtures, name, seed)
    queries = batch.to_queries()
    counts, bitmaps = label_batch(db, batch, samples.row_ids, samples.sample_size)
    assert counts == [count_hash_join(db, q) for q in queries]
    assert counts == [execute_count(db, q) for q in queries]
    assert all(type(count) is int for count in counts)
    np.testing.assert_array_equal(bitmaps, per_query_bitmaps(samples, queries))


def test_small_tables_pad_their_bitmaps(fixtures):
    """kind_type (7 rows) and company_type (4) are sampled whole; their
    bitmap columns past the table are zero, as ``batch_bitmaps`` pads."""
    db, _, samples, _ = drawn(fixtures, "imdb", 0)
    kind = db.table("company_type").column("kind").dictionary[1]
    queries = [
        Query(tables=(TableRef("kind_type", "kt"),)),
        Query(
            tables=(TableRef("company_type", "ct"),),
            predicates=(Predicate("ct", "kind", "=", kind),),
        ),
    ]
    _, bitmaps = label_batch(
        db, QueryBatch.from_queries(queries), samples.row_ids, samples.sample_size
    )
    np.testing.assert_array_equal(bitmaps, per_query_bitmaps(samples, queries))
    assert bitmaps[0].sum() == 7 and not bitmaps[0, 7:].any()
    assert bitmaps[1].sum() == 1 and not bitmaps[1, 4:].any()


def test_hand_written_workload_through_from_queries(imdb_small):
    """A user workload: a cycle (hash-join fallback), a string ``in``, a
    range on a nullable column, a cross product and a repeat."""
    db = imdb_small
    cycle = Query(
        tables=(TableRef("title", "t"), TableRef("movie_keyword", "mk"),
                TableRef("movie_companies", "mc")),
        joins=(JoinEdge("mk", "movie_id", "t", "id"), JoinEdge("mc", "movie_id", "t", "id"),
               JoinEdge("mk", "movie_id", "mc", "movie_id")),
        predicates=(Predicate("t", "production_year", ">", 1990),),
    )
    keywords = db.table("keyword").column("keyword").dictionary
    chain = Query(
        tables=(TableRef("title", "t"), TableRef("movie_keyword", "mk"), TableRef("keyword", "k")),
        joins=(JoinEdge("mk", "movie_id", "t", "id"), JoinEdge("mk", "keyword_id", "k", "id")),
        predicates=(Predicate("k", "keyword", "in", (keywords[0], keywords[3], "absent")),
                    Predicate("t", "season_nr", "<", 5)),
    )
    cross = Query(
        tables=(TableRef("kind_type", "kt"), TableRef("company_type", "ct")),
        predicates=(Predicate("kt", "id", ">=", 2),),
    )
    workload = [cycle, chain, cross, cycle]
    spec = WorkloadSpec(
        tables=("company_type", "keyword", "kind_type", "movie_companies",
                "movie_keyword", "title"),
        predicate_columns={"title": ("production_year", "season_nr"),
                           "keyword": ("keyword",), "kind_type": ("id",)},
    )
    samples = materialize_samples(db, spec.tables, SAMPLE_SIZE, seed=2)
    batch = QueryBatch.from_queries(workload)
    counts, bitmaps = label_batch(db, batch, samples.row_ids, samples.sample_size)
    assert counts == [count_hash_join(db, q) for q in workload]
    assert counts[0] > 0 and counts[1] > 0 and counts[2] > 0
    np.testing.assert_array_equal(bitmaps, per_query_bitmaps(samples, workload))
    # The cycle's mk-mc edge is no foreign key, so only the others featurize.
    featurizer = featurizer_for(db, spec, np.array(counts))
    keep = np.array([1, 2])
    queries = [workload[i] for i in keep]
    legacy = collate(featurizer.featurize_batch(queries, batch_bitmaps(samples, queries), db=db))
    packed = featurizer.featurize_packed(
        batch.take(keep), bitmaps[segment_rows(batch.table_offsets(), keep)], db=db
    )
    for rows, (data, mask) in zip(packed, SET_ARRAYS):
        real = getattr(legacy, mask).astype(bool)
        assert dense_rows(rows).tobytes() == getattr(legacy, data)[real].tobytes()


@settings(max_examples=15, deadline=None)
@given(name=specs, seed=seeds, use_bitmaps=st.booleans())
def test_packed_rows_are_the_collated_rows(fixtures, name, seed, use_bitmaps):
    db, spec, samples, batch = drawn(fixtures, name, seed)
    queries = batch.to_queries()
    counts, bitmaps = label_batch(db, batch, samples.row_ids, samples.sample_size)
    featurizer = featurizer_for(db, spec, np.array(counts))
    featurizer.use_bitmaps = use_bitmaps
    sets = featurizer.featurize_packed(batch, bitmaps, db=db)
    legacy = collate(featurizer.featurize_batch(queries, batch_bitmaps(samples, queries), db=db))
    tables = sets[0]
    assert tables.bitmaps.dtype == bool and tables.rows.shape[1] == len(featurizer.tables)
    assert tables.bitmaps.any() == (use_bitmaps and bitmaps.any())
    for packed, (data, mask) in zip(sets, SET_ARRAYS):
        real = getattr(legacy, mask).astype(bool)
        want = getattr(legacy, data)[real]
        got = dense_rows(packed)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(np.diff(packed.offsets), real.sum(axis=1))


@settings(max_examples=10, deadline=None)
@given(name=specs, seed=seeds, batch_size=st.integers(1, 40))
def test_split_minibatches_gather_the_same_rows(fixtures, name, seed, batch_size):
    """``split_rows`` then ``batch_indices`` pick the same queries, and
    their rows, as the per-query features split the same way."""
    db, spec, samples, batch = drawn(fixtures, name, seed)
    counts, bitmaps = label_batch(db, batch, samples.row_ids, samples.sample_size)
    kept = np.flatnonzero(np.array(counts) > 0)
    if kept.size < 10:
        return
    bitmaps = bitmaps[segment_rows(batch.table_offsets(), kept)]
    batch = batch.take(kept)
    labels = np.array(counts, dtype=np.float64)[kept]
    featurizer = featurizer_for(db, spec, labels)
    dataset = TrainingSet(
        *featurizer.featurize_packed(batch, bitmaps, db=db), featurizer.normalize_label(labels)
    )
    queries = batch.to_queries()
    features = featurizer.featurize_batch(queries, batch_bitmaps(samples, queries), db=db)
    order = np.random.default_rng(seed).permutation(len(queries))  # split's draw
    train, val = split_rows(len(dataset), 0.2, seed=seed)
    n_val = max(int(round(len(queries) * 0.2)), 1)
    for part, ids in ((train, order[n_val:]), (val, order[:n_val])):
        np.testing.assert_array_equal(part, ids)
        positions = batch_indices(np.arange(ids.size), batch_size, seed=seed)
        for index, position in zip(batch_indices(part, batch_size, seed=seed), positions):
            np.testing.assert_array_equal(index, ids[position])
            legacy = collate([features[i] for i in index])
            for name_, mask in SET_ARRAYS:
                packed = getattr(dataset, name_)
                real = getattr(legacy, mask).astype(bool)
                got = dense_rows(packed, segment_rows(packed.offsets, index))
                assert got.tobytes() == getattr(legacy, name_)[real].tobytes()


@settings(max_examples=15, deadline=None)
@given(seed=seeds, use_bitmaps=st.booleans(), batch_size=st.integers(1, 40))
@example(seed=0, use_bitmaps=False, batch_size=7)
def test_session_operand_is_the_dense_table_rows(fixtures, seed, use_bitmaps, batch_size):
    """The float64 table operand the training session gathers for each
    minibatch (one-hots copied, boolean bitmaps cast in place) is, bit
    for bit, the dense rows of ``dense_table_rows``: one- and
    three-table queries, the last partial minibatch included."""
    db, spec, samples, batch = drawn(fixtures, "imdb", seed)
    counts, bitmaps = label_batch(db, batch, samples.row_ids, samples.sample_size)
    assert {1, 3} <= set(np.diff(batch.table_offsets()).tolist())
    featurizer = featurizer_for(db, spec, np.array(counts))
    featurizer.use_bitmaps = use_bitmaps
    dataset = TrainingSet(
        *featurizer.featurize_packed(batch, bitmaps, db=db),
        featurizer.normalize_label(np.array(counts)),
    )
    want = dense_table_rows(featurizer, batch, bitmaps)
    model = MSCN(
        featurizer.table_dim, featurizer.join_dim, featurizer.predicate_dim,
        hidden_units=4, seed=seed,
    )
    session = TrainingSession(
        model, loss="qerror", log_max_card=featurizer.log_label_span, learning_rate=1e-3
    )
    for index in batch_indices(np.arange(len(dataset)), batch_size, seed=seed):
        operand = session._forward(dataset, index)[2][0].x  # the table set's
        assert operand.dtype == np.float64
        assert operand.tobytes() == want[segment_rows(batch.table_offsets(), index)].tobytes()
