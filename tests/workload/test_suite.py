"""Templated suite generator: structure, families, determinism, JSON."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.db import execute_count, parse_sql, to_sql
from repro.errors import QueryError
from repro.workload import (
    PredicateSlot,
    SuiteConfig,
    TemplateQueries,
    TemplateSuite,
    generate_template_suite,
    spec_for_imdb_templates,
)
from repro.workload.suite import NUMERIC_FAMILIES, RANGE_OPS

SEED = 20240807


@pytest.fixture(scope="module")
def spec():
    return spec_for_imdb_templates(max_joins=3)


@pytest.fixture(scope="module")
def suite(request, spec):
    imdb = request.getfixturevalue("imdb_small")
    config = SuiteConfig(n_templates=10, queries_per_template=20, max_joins=3)
    return generate_template_suite(imdb, spec, config, seed=SEED)


class TestStructure:
    def test_counts(self, suite):
        assert len(suite) == 10
        assert all(1 <= len(t) <= 20 for t in suite)

    def test_names_are_unique_and_descriptive(self, suite):
        assert len(set(suite.names)) == 10
        for entry in suite:
            assert entry.name.startswith("q")
            assert f"{entry.template.n_joins}j" in entry.name

    def test_join_depth_within_config(self, suite):
        depths = {t.template.n_joins for t in suite}
        assert max(depths) <= 3
        assert len(depths) > 1  # several depths exercised

    def test_instances_share_template_shape(self, suite):
        for entry in suite:
            for query in entry.queries:
                # Query canonicalizes table/join order on construction.
                assert sorted(query.tables) == sorted(entry.template.tables)
                assert set(query.joins) == set(entry.template.joins)
                shape = [(p.alias, p.column, p.op) for p in query.predicates]
                expected = [
                    (s.alias, s.column, op)
                    for s in entry.template.slots
                    for op in s.ops
                ]
                assert sorted(shape) == sorted(expected)

    def test_instances_are_distinct_within_template(self, suite):
        for entry in suite:
            assert len(set(entry.queries)) == len(entry.queries)

    def test_all_families_appear(self, suite):
        families = {s.family for t in suite for s in t.template.slots}
        assert families == set(NUMERIC_FAMILIES)

    def test_range_ops_drawn_from_vocabulary(self, suite):
        for entry in suite:
            for slot in entry.template.slots:
                if slot.family == "range":
                    assert slot.ops[0] in RANGE_OPS

    def test_self_joins_appear_with_fresh_aliases(self, request, spec):
        imdb = request.getfixturevalue("imdb_small")
        config = SuiteConfig(
            n_templates=12, queries_per_template=4, max_joins=3,
            self_join_fraction=0.9,
        )
        drawn = generate_template_suite(imdb, spec, config, seed=3)
        selfish = [t for t in drawn if t.template.has_self_join]
        assert selfish, "no self-join templates drawn at fraction 0.9"
        for entry in selfish:
            aliases = [ref.alias for ref in entry.template.tables]
            assert len(aliases) == len(set(aliases))
            assert "s" in entry.name.split("_")[1]

    def test_in_slots_have_fixed_arity(self, suite):
        checked = 0
        for entry in suite:
            for slot in entry.template.slots:
                if slot.family != "in":
                    continue
                checked += 1
                for query in entry.queries:
                    for pred in query.predicates:
                        if pred.alias == slot.alias and pred.column == slot.column:
                            assert isinstance(pred.literal, tuple)
                            assert len(pred.literal) <= slot.in_arity
        assert checked > 0

    def test_between_slots_are_ordered(self, suite):
        for entry in suite:
            for slot in entry.template.slots:
                if slot.family != "between":
                    continue
                for query in entry.queries:
                    bounds = {
                        p.op: p.literal
                        for p in query.predicates
                        if p.alias == slot.alias and p.column == slot.column
                    }
                    assert bounds[">="] <= bounds["<="]


class TestSqlRoundTrip:
    def test_every_instance_round_trips_through_sql(self, suite):
        # All families (eq, range, between, IN; numeric and string) must
        # survive print -> parse with semantic equality.
        for query in suite.queries():
            assert parse_sql(to_sql(query)) == query


class TestDeterminism:
    def test_same_seed_same_digest(self, request, spec, suite):
        imdb = request.getfixturevalue("imdb_small")
        config = SuiteConfig(n_templates=10, queries_per_template=20, max_joins=3)
        again = generate_template_suite(imdb, spec, config, seed=SEED)
        assert again.digest() == suite.digest()
        assert again.queries() == suite.queries()

    def test_different_seed_different_digest(self, request, spec, suite):
        imdb = request.getfixturevalue("imdb_small")
        config = SuiteConfig(n_templates=10, queries_per_template=20, max_joins=3)
        other = generate_template_suite(imdb, spec, config, seed=SEED + 1)
        assert other.digest() != suite.digest()

    def test_cross_process_digest_regression(self):
        # Satellite 1: the same seed must yield a byte-identical suite
        # in a fresh interpreter (no hidden global-RNG or hash-seed
        # dependence).  The subprocess regenerates a small suite and
        # prints its digest; it must equal the in-process digest.
        program = textwrap.dedent(
            """
            from repro.datasets import ImdbConfig, generate_imdb
            from repro.workload import (
                SuiteConfig, generate_template_suite, spec_for_imdb_templates,
            )

            db = generate_imdb(ImdbConfig(scale=0.04, seed=5))
            suite = generate_template_suite(
                db,
                spec_for_imdb_templates(max_joins=2),
                SuiteConfig(n_templates=4, queries_per_template=6, max_joins=2),
                seed=99,
            )
            print(suite.digest())
            """
        )
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"
        )
        env["PYTHONPATH"] = os.path.abspath(src)
        env["PYTHONHASHSEED"] = "random"
        digests = set()
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, "-c", program],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert out.returncode == 0, out.stderr
            digests.add(out.stdout.strip())
        assert len(digests) == 1

        from repro.datasets import ImdbConfig, generate_imdb

        db = generate_imdb(ImdbConfig(scale=0.04, seed=5))
        local = generate_template_suite(
            db,
            spec_for_imdb_templates(max_joins=2),
            SuiteConfig(n_templates=4, queries_per_template=6, max_joins=2),
            seed=99,
        )
        assert digests == {local.digest()}


class TestLabeling:
    def test_label_attaches_exact_cardinalities(self, request, suite):
        imdb = request.getfixturevalue("imdb_small")
        labeled = suite.label(imdb)
        assert labeled.labeled
        for entry in labeled:
            for query, card in zip(entry.queries, entry.cardinalities):
                assert card == execute_count(imdb, query) > 0

    @pytest.mark.parametrize("drop_zero, min_queries", [(True, 1), (True, 15), (False, 1)])
    def test_label_is_one_batch_call(self, request, suite, monkeypatch, drop_zero, min_queries):
        """One ``execute_counts`` call labels every template; the kept
        and dropped instances are those of labelling query by query."""
        from repro.workload import suite as suite_module

        imdb = request.getfixturevalue("imdb_small")
        batches = []
        counts = suite_module.execute_counts
        monkeypatch.setattr(
            suite_module,
            "execute_counts",
            lambda db, queries: batches.append(len(queries)) or counts(db, queries),
        )
        labeled = suite.label(imdb, drop_zero=drop_zero, min_queries_per_template=min_queries)
        assert batches == [len(suite.queries())]

        want = []
        for entry in suite:
            kept = [
                (query, execute_count(imdb, query))
                for query in entry.queries
                if execute_count(imdb, query) > 0 or not drop_zero
            ]
            if len(kept) >= min_queries:
                want.append((entry.name, kept))
        assert [
            (entry.name, list(zip(entry.queries, entry.cardinalities))) for entry in labeled
        ] == want

    def test_label_drops_underpopulated_templates(self, request, suite):
        imdb = request.getfixturevalue("imdb_small")
        generous = suite.label(imdb, min_queries_per_template=1)
        strict = suite.label(imdb, min_queries_per_template=10**9)
        assert len(strict) == 0
        assert len(generous) >= len(strict)

    def test_labeled_pairs_requires_labels(self, suite):
        with pytest.raises(QueryError, match="not labeled"):
            suite.labeled_pairs()


class TestSerialization:
    def test_json_round_trip_preserves_digest(self, request, suite):
        imdb = request.getfixturevalue("imdb_small")
        labeled = suite.label(imdb)
        for original in (suite, labeled):
            payload = json.loads(json.dumps(original.to_json()))
            restored = TemplateSuite.from_json(payload)
            assert restored.digest() == original.digest()
            assert restored.queries() == original.queries()

    def test_malformed_payload_rejected(self):
        with pytest.raises(QueryError, match="malformed"):
            TemplateSuite.from_json({"version": 1, "templates": [{}]})

    def test_unsupported_version_rejected(self, suite):
        payload = suite.to_json()
        payload["version"] = 999
        with pytest.raises(QueryError, match="version"):
            TemplateSuite.from_json(payload)


class TestValidation:
    def test_duplicate_template_names_rejected(self, suite):
        entry = suite.templates[0]
        with pytest.raises(QueryError, match="duplicate"):
            TemplateSuite(templates=(entry, entry))

    def test_subset_unknown_name_rejected(self, suite):
        with pytest.raises(QueryError, match="unknown"):
            suite.subset(["nope"])

    def test_slot_validation(self):
        with pytest.raises(QueryError, match="family"):
            PredicateSlot("t", "title", "id", "like", ("like",))
        with pytest.raises(QueryError, match="arity"):
            PredicateSlot("t", "title", "id", "in", ("in",), in_arity=0)

    def test_mismatched_cardinalities_rejected(self, suite):
        entry = suite.templates[0]
        with pytest.raises(QueryError, match="cardinalities"):
            TemplateQueries(
                template=entry.template,
                queries=entry.queries,
                cardinalities=(1,) * (len(entry.queries) + 1),
            )

    def test_impossible_template_count_raises(self, request):
        imdb = request.getfixturevalue("imdb_small")
        from repro.workload import WorkloadSpec

        # One table, one column: very few distinct structures exist.
        spec = WorkloadSpec(
            tables=("title",),
            aliases={"title": "t"},
            predicate_columns={"title": ("production_year",)},
        )
        with pytest.raises(QueryError, match="distinct templates"):
            generate_template_suite(
                imdb, spec,
                SuiteConfig(n_templates=50, queries_per_template=2, max_joins=0),
                seed=1,
            )
