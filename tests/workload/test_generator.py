"""Training-query generator tests (paper step 2)."""

import hashlib

import numpy as np
import pytest

from repro.db import execute_count
from repro.errors import QueryError
from repro.workload import (
    TrainingQueryGenerator,
    WorkloadSpec,
    spec_for_imdb,
    spec_for_imdb_templates,
    spec_for_tpch,
)


@pytest.fixture(scope="module")
def generator(request):
    imdb = request.getfixturevalue("imdb_small")
    return TrainingQueryGenerator(imdb, spec_for_imdb(), seed=1)


@pytest.fixture(scope="module")
def queries(generator):
    return generator.draw_many(300)


class TestStructure:
    def test_count(self, queries):
        assert len(queries) == 300

    def test_join_count_within_spec(self, queries):
        assert all(q.num_joins <= 2 for q in queries)
        # the full range 0..2 should be exercised
        assert {q.num_joins for q in queries} == {0, 1, 2}

    def test_queries_are_connected(self, queries):
        from repro.db.join_graph import build_join_graph, connected_components

        for query in queries:
            assert len(connected_components(build_join_graph(query))) == 1

    def test_joins_follow_foreign_keys(self, imdb_small, queries):
        for query in queries:
            for join in query.joins:
                t_left = query.alias_table(join.left_alias)
                t_right = query.alias_table(join.right_alias)
                fks = imdb_small.foreign_keys_between(t_left, t_right)
                assert fks, f"join {join} not backed by a foreign key"

    def test_predicates_use_spec_columns(self, queries):
        spec = spec_for_imdb()
        for query in queries:
            for pred in query.predicates:
                table = query.alias_table(pred.alias)
                assert pred.column in spec.columns_of(table)

    def test_operator_vocabulary(self, queries):
        ops = {p.op for q in queries for p in q.predicates}
        assert ops <= {"=", "<", ">"}
        assert "=" in ops and "<" in ops and ">" in ops

    def test_equality_literals_exist_in_data(self, imdb_small, queries):
        for query in queries[:80]:
            for pred in query.predicates:
                if pred.op != "=":
                    continue
                table = imdb_small.table(query.alias_table(pred.alias))
                mask = table.column(pred.column).evaluate("=", pred.literal)
                assert mask.any(), f"literal {pred} matches no row"

    def test_queries_execute(self, imdb_small, queries):
        for query in queries[:60]:
            assert execute_count(imdb_small, query) >= 0


class TestDeterminismAndErrors:
    def test_same_seed_same_queries(self, imdb_small):
        a = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=9).draw_many(20)
        b = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=9).draw_many(20)
        assert a == b

    def test_different_seeds_differ(self, imdb_small):
        a = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=1).draw_many(20)
        b = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=2).draw_many(20)
        assert a != b

    #: sha256 prefixes of 300 drawn queries' SQL, seeds 0-4, taken
    #: before the scalar draws moved from ``rng.choice(list)`` to
    #: ``rng.integers``: the draw stream must not change.
    PINNED_SQL = {
        "imdb": ("417fc8577089b593", "074e7a34199309da", "9af3ca752be2ed26",
                 "6126c1b4e5a18a48", "59d23111cf8f058d"),
        "templates": ("12912618919b32e3", "cce748d62b3f7481", "0b9428983f774b18",
                      "4ef74a195bbe53a9", "bca6ceb70d6152e4"),
        "tpch": ("ebd391b5c6064f68", "bfabcaa6557c16eb", "5bdb328320f2c0c5",
                 "0b2dd79c6191baec", "b1ba459abc91446f"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_SQL))
    def test_draw_stream_is_pinned(self, request, name):
        db = request.getfixturevalue("tpch_small" if name == "tpch" else "imdb_small")
        spec = {
            "imdb": spec_for_imdb, "templates": spec_for_imdb_templates, "tpch": spec_for_tpch
        }[name]()
        for seed, want in enumerate(self.PINNED_SQL[name]):
            queries = TrainingQueryGenerator(db, spec, seed=seed).draw_many(300)
            sql = "\n".join(q.to_sql() for q in queries)
            assert hashlib.sha256(sql.encode()).hexdigest()[:16] == want, seed

    def test_unknown_table_in_spec(self, imdb_small):
        spec = WorkloadSpec(tables=("ghost",))
        with pytest.raises(QueryError):
            TrainingQueryGenerator(imdb_small, spec)

    def test_negative_draw_rejected(self, generator):
        with pytest.raises(QueryError):
            generator.draw_many(-1)

    def test_zero_max_joins_gives_single_tables(self, imdb_small):
        spec = spec_for_imdb(max_joins=0)
        gen = TrainingQueryGenerator(imdb_small, spec, seed=0)
        assert all(q.num_joins == 0 for q in gen.draw_many(30))


class TestTpchSpec:
    def test_tpch_generator_runs(self, tpch_small):
        gen = TrainingQueryGenerator(tpch_small, spec_for_tpch(), seed=0)
        queries = gen.draw_many(50)
        for query in queries[:20]:
            assert execute_count(tpch_small, query) >= 0
