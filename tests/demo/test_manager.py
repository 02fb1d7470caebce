"""SketchManager tests: the demo backend workflow."""

import dataclasses

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.demo import SketchManager
from repro.errors import SketchError
from repro.workload import spec_for_imdb

FAST = SketchConfig(n_training_queries=80, epochs=2, sample_size=40, hidden_units=8)


@pytest.fixture
def manager(imdb_small):
    return SketchManager(imdb_small)


@pytest.fixture
def spec():
    return spec_for_imdb(tables=("title", "movie_keyword"))


class TestRegistry:
    def test_create_and_list(self, manager, spec):
        manager.create_sketch("s1", spec, config=FAST)
        assert manager.list_sketches() == ["s1"]

    def test_duplicate_name_rejected(self, manager, spec):
        manager.create_sketch("s1", spec, config=FAST)
        with pytest.raises(SketchError):
            manager.create_sketch("s1", spec, config=FAST)

    def test_get_unknown_rejected(self, manager):
        with pytest.raises(SketchError):
            manager.get_sketch("nope")

    def test_register_prebuilt(self, manager, trained_sketch):
        sketch, _ = trained_sketch
        manager.register_sketch(sketch)
        assert manager.get_sketch(sketch.name) is sketch
        with pytest.raises(SketchError):
            manager.register_sketch(sketch)

    def test_drop(self, manager, spec):
        manager.create_sketch("s1", spec, config=FAST)
        manager.drop_sketch("s1")
        assert manager.list_sketches() == []
        with pytest.raises(SketchError):
            manager.drop_sketch("s1")

    def test_monitor_available_after_create(self, manager, spec):
        manager.create_sketch("s1", spec, config=FAST)
        monitor = manager.monitor_for("s1")
        assert monitor.stage_fraction("train") == 1.0
        with pytest.raises(SketchError):
            manager.monitor_for("never-built")


class TestQuerying:
    def test_query_by_name(self, manager, spec):
        manager.create_sketch("s1", spec, config=FAST)
        estimate = manager.query(
            "s1",
            "SELECT COUNT(*) FROM title t, movie_keyword mk "
            "WHERE mk.movie_id=t.id AND t.production_year>2000;",
        )
        assert estimate >= 1.0

    def test_route_picks_narrowest_covering_sketch(self, manager, spec, trained_sketch):
        wide, _ = trained_sketch  # six JOB-light tables
        manager.register_sketch(wide)
        manager.create_sketch("narrow", spec, config=FAST)  # title+movie_keyword
        sql = (
            "SELECT COUNT(*) FROM title t, movie_keyword mk "
            "WHERE mk.movie_id=t.id AND t.production_year>2000;"
        )
        name = manager.route_name(sql)
        assert name == "narrow"
        assert manager.query(name, sql) >= 1.0

    def test_route_falls_back_to_wider_sketch(self, manager, spec, trained_sketch):
        wide, _ = trained_sketch
        manager.register_sketch(wide)
        manager.create_sketch("narrow", spec, config=FAST)
        name = manager.route_name(
            "SELECT COUNT(*) FROM title t, cast_info ci WHERE ci.movie_id=t.id;"
        )
        assert name == wide.name

    def test_route_uncovered_rejected(self, manager, spec):
        manager.create_sketch("narrow", spec, config=FAST)
        with pytest.raises(SketchError):
            manager.route_name("SELECT COUNT(*) FROM keyword k;")

    def test_advise(self, imdb_small):
        from repro.demo import recommend_sketches
        from repro.workload import TrainingQueryGenerator, spec_for_imdb

        generator = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=9)
        recommendations = recommend_sketches(generator.draw_many(150), max_sketches=3)
        assert 1 <= len(recommendations) <= 3
        assert all(r.queries_covered > 0 for r in recommendations)


class TestIncrementalBuild:
    def test_train_while_querying(self, manager, spec, trained_sketch):
        """The demo's third mitigation: query an existing sketch while a
        new model trains epoch by epoch."""
        prebuilt, _ = trained_sketch
        manager.register_sketch(prebuilt)

        pending = manager.start_build("incremental", spec, config=FAST)
        assert manager.pending_builds() == ["incremental"]
        assert not pending.finished

        # Interleave: one training epoch, then a query, then the rest.
        manager.step_build("incremental")
        mid_estimate = manager.query(
            prebuilt.name,
            "SELECT COUNT(*) FROM title t WHERE t.production_year>2010;",
        )
        assert mid_estimate >= 1.0
        manager.step_build("incremental")

        assert manager.pending_builds() == []
        assert "incremental" in manager.list_sketches()
        estimate = manager.query(
            "incremental",
            "SELECT COUNT(*) FROM title t WHERE t.production_year>2010;",
        )
        assert estimate >= 1.0

    def test_epoch_stats_accumulate(self, manager, spec):
        pending = manager.start_build("inc2", spec, config=FAST)
        manager.step_build("inc2")
        assert len(pending.epoch_stats) == 1
        manager.step_build("inc2")
        assert len(pending.epoch_stats) == 2

    def test_step_unknown_build_rejected(self, manager):
        with pytest.raises(SketchError):
            manager.step_build("ghost")

    def test_duplicate_pending_rejected(self, manager, spec):
        manager.start_build("inc3", spec, config=FAST)
        with pytest.raises(SketchError):
            manager.start_build("inc3", spec, config=FAST)

    def test_incremental_metadata(self, manager, spec):
        manager.start_build("inc4", spec, config=FAST)
        manager.step_build("inc4")
        manager.step_build("inc4")
        sketch = manager.get_sketch("inc4")
        assert sketch.metadata["incremental"] is True
        assert sketch.metadata["epochs"] == 2


def _build_incrementally(manager, name, spec, config, seed=None):
    manager.start_build(name, spec, config=config, seed=seed)
    while manager.pending_builds():
        manager.step_build(name)
    return manager.get_sketch(name)


class TestIncrementalIsTheSynchronousBuild:
    """Stepping a build trains exactly the sketch create_sketch trains."""

    def test_same_weights_as_create_sketch(self, manager, spec):
        synchronous, _ = manager.create_sketch("sync", spec, config=FAST, seed=3)
        stepped = _build_incrementally(manager, "stepped", spec, FAST, seed=3)
        want = synchronous.model.state_dict()
        got = stepped.model.state_dict()
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_metadata_is_synchronous_plus_incremental(self, manager, spec):
        synchronous, _ = manager.create_sketch("sync", spec, config=FAST, seed=3)
        stepped = _build_incrementally(manager, "stepped", spec, FAST, seed=3)
        assert stepped.metadata == {**synchronous.metadata, "incremental": True}

    def test_sample_bitmap_switch_is_honoured(self, manager, spec):
        config = dataclasses.replace(FAST, use_sample_bitmaps=False)
        stepped = _build_incrementally(manager, "no-bitmaps", spec, config)
        assert stepped.featurizer.use_bitmaps is False

    def test_monitor_sees_every_stage(self, manager, spec):
        manager.start_build("watched", spec, config=FAST)
        monitor = manager.monitor_for("watched")
        assert monitor.stages_seen() == ["define", "generate", "execute"]
        for step in (1, 2):
            manager.step_build("watched")
            train = [e for e in monitor.events if e.stage == "train"]
            assert [(e.current, e.total) for e in train] == [(i, 2) for i in range(1, step + 1)]
        assert monitor.stages_seen() == ["define", "generate", "execute", "train"]

    def test_validation_split_drawn_once(self, manager, spec, monkeypatch):
        from repro.core import training

        splits = []
        split = training.split_rows

        def counting_split(n, *args, **kwargs):
            splits.append(n)
            return split(n, *args, **kwargs)

        monkeypatch.setattr(training, "split_rows", counting_split)
        _build_incrementally(manager, "one-split", spec, FAST)
        assert len(splits) == 1
