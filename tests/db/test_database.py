"""Database catalog and FK-graph tests."""

import pytest

from repro.db import ForeignKey
from repro.errors import SchemaError


class TestCatalog:
    def test_table_lookup(self, tiny_db):
        assert tiny_db.table("title").n_rows == 6
        with pytest.raises(SchemaError):
            tiny_db.table("nope")

    def test_duplicate_table_rejected(self, tiny_db):
        with pytest.raises(SchemaError):
            tiny_db.add_table(tiny_db.table("title"))

    def test_table_names_sorted(self, tiny_db):
        assert tiny_db.table_names() == ["movie_info", "movie_keyword", "title"]

    def test_total_rows(self, tiny_db):
        assert tiny_db.total_rows() == 6 + 8 + 5

    def test_fk_unknown_table_rejected(self, tiny_db):
        with pytest.raises(SchemaError):
            tiny_db.add_foreign_key(ForeignKey("ghost", "x", "title", "id"))

    def test_fk_unknown_column_rejected(self, tiny_db):
        with pytest.raises(SchemaError):
            tiny_db.add_foreign_key(
                ForeignKey("movie_keyword", "nope", "title", "id")
            )


class TestJoinTopology:
    def test_join_edge_between(self, tiny_db):
        fk = tiny_db.join_edge_between("movie_keyword", "title")
        assert fk.column == "movie_id"
        assert fk.ref_column == "id"
        # order of arguments must not matter
        fk2 = tiny_db.join_edge_between("title", "movie_keyword")
        assert fk2 == fk

    def test_join_edge_missing(self, tiny_db):
        with pytest.raises(SchemaError):
            tiny_db.join_edge_between("movie_keyword", "movie_info")

    def test_ambiguous_join_rejected(self, tiny_db):
        tiny_db.add_foreign_key(
            ForeignKey("movie_keyword", "keyword_id", "title", "id")
        )
        with pytest.raises(SchemaError):
            tiny_db.join_edge_between("movie_keyword", "title")

    def test_imdb_fk_catalog(self, imdb_small):
        # every JOB-light fact table links to title
        for fact in ("movie_keyword", "movie_info", "movie_info_idx",
                     "movie_companies", "cast_info"):
            fk = imdb_small.join_edge_between(fact, "title")
            assert fk.ref_column == "id"
