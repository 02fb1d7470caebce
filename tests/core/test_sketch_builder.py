"""DeepSketch + SketchBuilder tests (the end-to-end core pipeline)."""

import numpy as np
import pytest

from repro.core import DeepSketch, SketchBuilder, SketchConfig, STAGES, Trainer, collate
from repro.db import execute_count, parse_sql
from repro.errors import FeaturizationError, SketchError
from repro.sampling import query_bitmaps
from repro.workload import (
    Predicate,
    Query,
    TableRef,
    TrainingQueryGenerator,
    spec_for_imdb,
)
from tests.helpers import dense_rows


@pytest.fixture(scope="module")
def sketch_and_report(request):
    return request.getfixturevalue("trained_sketch")


class TestBuilder:
    def test_report_stages(self, sketch_and_report):
        _, report = sketch_and_report
        assert set(report.stage_seconds) == set(STAGES)
        assert report.total_seconds > 0

    def test_zero_queries_dropped_counted(self, sketch_and_report):
        _, report = sketch_and_report
        assert report.n_queries_generated == 800
        assert 0 <= report.n_zero_cardinality_dropped < 800

    def test_training_attached(self, sketch_and_report):
        _, report = sketch_and_report
        assert report.training is not None
        assert len(report.training.epochs) == 6

    def test_progress_events(self, imdb_small):
        events = []
        builder = SketchBuilder(
            imdb_small,
            spec_for_imdb(),
            config=SketchConfig(
                n_training_queries=100, epochs=2, sample_size=50, hidden_units=8
            ),
            progress=events.append,
        )
        builder.build("progress-test")
        stages_seen = [e.stage for e in events]
        for stage in STAGES:
            assert stage in stages_seen
        # train stage fires once per epoch
        assert sum(1 for e in events if e.stage == "train") == 2
        assert all(0.0 <= e.fraction <= 1.0 for e in events)

    def test_training_set_equals_per_query_featurization(self, imdb_small, monkeypatch):
        """The builder featurizes on the columnar path; the packed rows
        it hands the trainer (the table set's boolean bitmaps read as
        0.0/1.0) are byte-equal to featurizing query by query."""
        seen = {}
        epochs = Trainer.epochs

        def recording_epochs(trainer, dataset, *args, **kwargs):
            seen["dataset"] = dataset
            return epochs(trainer, dataset, *args, **kwargs)

        monkeypatch.setattr(Trainer, "epochs", recording_epochs)
        queries = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=3).draw_many(120)
        sketch, _ = SketchBuilder(
            imdb_small,
            spec_for_imdb(),
            config=SketchConfig(epochs=1, sample_size=50, hidden_units=8),
        ).build("batch-path", training_queries=queries)

        kept = [query for query in queries if execute_count(imdb_small, query) > 0]
        per_query = collate(
            [
                sketch.featurizer.featurize_query(
                    query, query_bitmaps(sketch.samples, query), db=imdb_small
                )
                for query in kept
            ]
        )
        built = seen["dataset"]
        assert len(built) == len(kept)
        for name, mask in (
            ("tables", "table_mask"), ("joins", "join_mask"), ("predicates", "predicate_mask")
        ):
            got = dense_rows(getattr(built, name))
            want = getattr(per_query, name)[getattr(per_query, mask).astype(bool)]
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_start_then_steps_is_build(self, imdb_small):
        config = SketchConfig(n_training_queries=100, epochs=2, sample_size=50, hidden_units=8)
        events = []
        pending = SketchBuilder(
            imdb_small, spec_for_imdb(), config=config, progress=events.append
        ).start("stepped", seed=5)
        assert [e.stage for e in events] == ["define", "define", "generate", "execute"]
        assert not pending.finished and pending.sketch is None
        while not pending.finished:
            pending.step()
        assert pending.epochs_done == 2 and len(pending.report.training.epochs) == 2
        with pytest.raises(SketchError):
            pending.step()

        built, report = SketchBuilder(imdb_small, spec_for_imdb(), config=config).build(
            "stepped", seed=5
        )
        assert pending.sketch.to_bytes() == built.to_bytes()
        assert set(pending.report.stage_seconds) == set(report.stage_seconds) == set(STAGES)

    def test_config_validation(self):
        with pytest.raises(SketchError):
            SketchConfig(sample_size=0)
        with pytest.raises(SketchError):
            SketchConfig(n_training_queries=5)


class TestSketchEstimation:
    def test_estimate_structured_query(self, sketch_and_report):
        sketch, _ = sketch_and_report
        query = Query(
            tables=(TableRef("title", "t"),),
            predicates=(Predicate("t", "production_year", ">", 2000),),
        )
        estimate = sketch.estimate(query)
        assert estimate >= 1.0
        assert np.isfinite(estimate)

    def test_estimate_sql_string(self, sketch_and_report):
        sketch, _ = sketch_and_report
        estimate = sketch.estimate(
            "SELECT COUNT(*) FROM title t, movie_keyword mk "
            "WHERE mk.movie_id=t.id AND t.production_year>2005;"
        )
        assert estimate >= 1.0

    def test_estimate_many_matches_single(self, sketch_and_report):
        sketch, _ = sketch_and_report
        queries = [
            Query(
                tables=(TableRef("title", "t"),),
                predicates=(Predicate("t", "production_year", "=", year),),
            )
            for year in (1990, 2000, 2010)
        ]
        batched = sketch.estimate_many(queries)
        singles = np.array([sketch.estimate(q) for q in queries])
        assert np.allclose(batched, singles)

    def test_estimate_many_empty(self, sketch_and_report):
        sketch, _ = sketch_and_report
        assert sketch.estimate_many([]).size == 0

    def test_estimates_are_learned_not_constant(self, sketch_and_report):
        sketch, _ = sketch_and_report
        narrow = sketch.estimate(
            "SELECT COUNT(*) FROM title t WHERE t.production_year=2015;"
        )
        wide = sketch.estimate(
            "SELECT COUNT(*) FROM title t WHERE t.production_year>1900;"
        )
        assert wide > narrow

    def test_reasonable_accuracy_on_training_distribution(
        self, sketch_and_report, imdb_small
    ):
        """The trained sketch must beat wild guessing on simple queries."""
        from repro.metrics import qerror

        sketch, _ = sketch_and_report
        generator = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=123)
        errors = []
        for query in generator.draw_many(60):
            truth = execute_count(imdb_small, query)
            if truth == 0:
                continue
            errors.append(qerror(sketch.estimate(query), truth))
        assert np.median(errors) < 10.0

    def test_query_outside_vocabulary_rejected(self, sketch_and_report):
        sketch, _ = sketch_and_report
        with pytest.raises(SketchError):
            sketch.estimate("SELECT COUNT(*) FROM keyword k;")

    def test_range_operators_servable(self, sketch_and_report):
        """The demo's year-grouping templates issue >=/< range queries
        against the sketch; those operators must featurize even though
        training only used {=, <, >}."""
        sketch, _ = sketch_and_report
        estimate = sketch.estimate(
            "SELECT COUNT(*) FROM title t "
            "WHERE t.production_year>=2000 AND t.production_year<2010;"
        )
        assert estimate >= 1.0

    def test_tables_property(self, sketch_and_report):
        sketch, _ = sketch_and_report
        assert "title" in sketch.tables
        assert "movie_keyword" in sketch.tables


class TestSketchSerialization:
    def test_bytes_roundtrip_estimates_identical(self, sketch_and_report):
        sketch, _ = sketch_and_report
        clone = DeepSketch.from_bytes(sketch.to_bytes())
        sql = (
            "SELECT COUNT(*) FROM title t, cast_info ci "
            "WHERE ci.movie_id=t.id AND ci.role_id=1;"
        )
        assert clone.estimate(sql) == pytest.approx(sketch.estimate(sql))
        assert clone.name == sketch.name
        assert clone.metadata == sketch.metadata

    def test_file_roundtrip(self, sketch_and_report, tmp_path):
        sketch, _ = sketch_and_report
        path = str(tmp_path / "sketch.bin")
        size = sketch.save(path)
        assert size == sketch.footprint_bytes()
        clone = DeepSketch.load(path)
        assert clone.samples.sample_size == sketch.samples.sample_size

    def test_footprint_is_compact(self, sketch_and_report):
        """Paper: 'Deep Sketches feature a small footprint size (a few
        MiBs)' — at our reduced sample size it must be well under one."""
        sketch, _ = sketch_and_report
        assert sketch.footprint_bytes() < 4 * 1024 * 1024

    def test_corrupt_payload_rejected(self):
        with pytest.raises(Exception) as err:
            DeepSketch.from_bytes(b"garbage")
        # SerializationError or SketchError, both under ReproError.
        from repro.errors import ReproError

        assert isinstance(err.value, ReproError)

    def test_repr_mentions_name(self, sketch_and_report):
        sketch, _ = sketch_and_report
        assert "test-sketch" in repr(sketch)
