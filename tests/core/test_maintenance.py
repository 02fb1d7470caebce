"""Drift detection and sketch fine-tuning tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import detect_drift, refresh_sketch, try_refresh_sketch
from repro.core.maintenance import RefreshResult, _categorical_tv, ks_statistic
from repro.datasets import ImdbConfig, generate_imdb
from repro.errors import SketchError
from repro.sampling import materialize_samples
from repro.workload import spec_for_imdb
from tests.helpers import pinned_statistics_inputs


class TestDriftDetection:
    def test_no_drift_on_same_database(self, imdb_small, trained_sketch):
        sketch, _ = trained_sketch
        report = detect_drift(sketch, imdb_small, seed=9)
        assert not report.is_stale(), report
        assert 0.0 <= report.max_drift() <= report.threshold
        # The values scipy.stats.ks_2samp gave before the statistic
        # moved to numpy (ks_statistic), exactly.
        assert report.table_drift == {
            "cast_info": 0.16, "movie_companies": 0.19, "movie_info": 0.14,
            "movie_info_idx": 0.17, "movie_keyword": 0.1,
            "title": 0.16137931034482758,
        }
        assert report.threshold == 0.24465894629054544

    def test_drift_on_shifted_database(self, trained_sketch):
        """A database regenerated with a shifted year distribution must
        trip the detector."""
        sketch, _ = trained_sketch
        shifted = generate_imdb(ImdbConfig(scale=0.1, seed=99))
        # Shift production years by three decades to force drift.
        title = shifted.table("title")
        title.columns["production_year"].values[:] = np.clip(
            title.columns["production_year"].values - 30, 1880, 2019
        )
        report = detect_drift(sketch, shifted, seed=9)
        assert report.is_stale(), report
        assert report.table_drift["title"] > report.threshold
        assert report.table_drift == {
            "cast_info": 0.16, "movie_companies": 0.16, "movie_info": 0.1,
            "movie_info_idx": 0.13, "movie_keyword": 0.07,
            "title": 0.696969696969697,
        }

    def test_report_covers_all_tables(self, imdb_small, trained_sketch):
        sketch, _ = trained_sketch
        report = detect_drift(sketch, imdb_small, seed=1)
        assert set(report.table_drift) == set(sketch.tables)
        assert report.table_drift["title"] == 0.2838095238095238

    def test_report_str(self, imdb_small, trained_sketch):
        sketch, _ = trained_sketch
        assert "max=" in str(detect_drift(sketch, imdb_small, seed=1))


class TestKsStatistic:
    """The numpy KS statistic, pinned to ``scipy.stats.ks_2samp`` values
    (scipy 1.17.1) on fixed inputs."""

    @pytest.fixture(scope="class")
    def samples(self):
        a, b, x, y = pinned_statistics_inputs()
        return a, b, x.astype(float), y[:333].astype(float)

    def test_continuous_samples(self, samples):
        a, b, _, _ = samples
        assert ks_statistic(a, b) == 0.08466666666666667
        assert ks_statistic(b, a) == 0.08466666666666667

    def test_tied_samples(self, samples):
        _, _, x, y = samples
        assert ks_statistic(x, y) == 0.030052552552552552

    def test_identical_and_disjoint(self):
        a = np.array([3.0, 1.0, 2.0])
        assert ks_statistic(a, a) == 0.0
        assert ks_statistic(a, a + 10.0) == 1.0


def _fake_string_column(values, dictionary):
    codes = np.asarray(values, dtype=np.int64)
    return SimpleNamespace(
        non_null_values=lambda: codes, dictionary=list(dictionary)
    )


class TestCategoricalDrift:
    """Satellite: string columns drift via total-variation distance."""

    def _string_sketch(self, db, sample_size=150, seed=1):
        # detect_drift only reads samples + tables, so a duck-typed
        # sketch exercises the string path without training a model
        # over dimension tables.
        samples = materialize_samples(db, ("keyword",), sample_size, seed=seed)
        return SimpleNamespace(samples=samples, tables=("keyword",))

    def test_same_category_mix_is_below_threshold(self, imdb_small):
        sketch = self._string_sketch(imdb_small)
        report = detect_drift(sketch, imdb_small, seed=3)
        assert not report.is_stale(), report
        assert report.table_drift["keyword"] < report.threshold

    def test_shifted_category_mix_trips_the_detector(self, imdb_small):
        sketch = self._string_sketch(imdb_small)
        mutated = generate_imdb(ImdbConfig(scale=0.1, seed=7))
        column = mutated.table("keyword").columns["keyword"]
        # Collapse the keyword mix onto three dominant categories: the
        # dictionary-code *frequencies* shift massively even though the
        # dictionary itself is unchanged.
        column.values[:] = column.values % 3
        report = detect_drift(sketch, mutated, seed=3)
        assert report.is_stale(), report
        assert report.table_drift["keyword"] > report.threshold

    def test_tv_zero_for_identical_columns(self):
        col = _fake_string_column([0, 0, 1, 2], ["a", "b", "c"])
        assert _categorical_tv(col, col) == pytest.approx(0.0)

    def test_tv_one_for_disjoint_categories(self):
        a = _fake_string_column([0, 0, 1], ["a", "b"])
        b = _fake_string_column([0, 1, 1], ["x", "y"])
        assert _categorical_tv(a, b) == pytest.approx(1.0)

    def test_tv_compares_category_strings_not_codes(self):
        # The same categories under differently sorted dictionaries must
        # read as identical: code 0 means different strings on each side.
        a = _fake_string_column([0, 0, 1], ["alpha", "beta"])
        b = _fake_string_column([1, 1, 0], ["beta", "alpha"])
        assert _categorical_tv(a, b) == pytest.approx(0.0)

    def test_tv_empty_side_reads_as_no_drift(self):
        a = _fake_string_column([], ["a"])
        b = _fake_string_column([0], ["a"])
        assert _categorical_tv(a, b) == 0.0

    def test_tail_bucket_registers_head_to_tail_shift(self):
        # 20 distinct rare categories on one side vs one dominant on the
        # other: the head-plus-tail bucketing still sees the shift.
        a = _fake_string_column(
            list(range(20)), [f"cat{i}" for i in range(20)]
        )
        b = _fake_string_column([0] * 20, [f"cat{i}" for i in range(20)])
        assert _categorical_tv(a, b) > 0.5


class TestRefresh:
    def test_refresh_produces_working_sketch(self, imdb_small, trained_sketch):
        sketch, _ = trained_sketch
        refreshed = refresh_sketch(
            sketch,
            imdb_small,
            spec_for_imdb(),
            n_queries=200,
            epochs=2,
            seed=4,
        )
        assert refreshed is not sketch
        assert refreshed.metadata["refreshed"] is True
        sql = (
            "SELECT COUNT(*) FROM title t, movie_keyword mk "
            "WHERE mk.movie_id=t.id AND t.production_year>2005;"
        )
        assert refreshed.estimate(sql) >= 1.0

    def test_original_sketch_unchanged(self, imdb_small, trained_sketch):
        sketch, _ = trained_sketch
        sql = "SELECT COUNT(*) FROM title t WHERE t.production_year>2000;"
        before = sketch.estimate(sql)
        refresh_sketch(
            sketch, imdb_small, spec_for_imdb(), n_queries=200, epochs=1, seed=4
        )
        assert sketch.estimate(sql) == pytest.approx(before)

    def test_label_bounds_preserved(self, imdb_small, trained_sketch):
        sketch, _ = trained_sketch
        refreshed = refresh_sketch(
            sketch, imdb_small, spec_for_imdb(), n_queries=200, epochs=1, seed=4
        )
        assert refreshed.featurizer.max_log_label == sketch.featurizer.max_log_label

    def test_mismatched_spec_rejected(self, imdb_small, trained_sketch):
        sketch, _ = trained_sketch
        with pytest.raises(SketchError):
            refresh_sketch(
                sketch,
                imdb_small,
                spec_for_imdb(tables=("title", "movie_keyword")),
                n_queries=100,
            )

    def test_fine_tuning_improves_on_changed_data(self, trained_sketch):
        """After a data change, fine-tuning must reduce the validation
        q-error relative to the frozen old model."""
        from repro.db import execute_count
        from repro.metrics import geometric_mean_qerror, qerrors
        from repro.workload import TrainingQueryGenerator

        sketch, _ = trained_sketch
        changed = generate_imdb(ImdbConfig(scale=0.1, seed=77))
        refreshed = refresh_sketch(
            sketch, changed, spec_for_imdb(), n_queries=600, epochs=4, seed=6
        )
        generator = TrainingQueryGenerator(changed, spec_for_imdb(), seed=500)
        queries, truths = [], []
        for query in generator.draw_many(80):
            truth = execute_count(changed, query)
            if truth > 0:
                queries.append(query)
                truths.append(float(truth))
        stale_err = geometric_mean_qerror(
            qerrors([sketch.estimate(q) for q in queries], truths)
        )
        fresh_err = geometric_mean_qerror(
            qerrors([refreshed.estimate(q) for q in queries], truths)
        )
        assert fresh_err <= stale_err * 1.05, (stale_err, fresh_err)


class TestTryRefresh:
    """Satellite: every refresh failure folds into a structured result."""

    def test_success_carries_the_refreshed_sketch(
        self, imdb_small, trained_sketch
    ):
        sketch, _ = trained_sketch
        result = try_refresh_sketch(
            sketch, imdb_small, spec_for_imdb(), n_queries=200, epochs=1, seed=4
        )
        assert result.ok
        assert result.sketch is not None
        assert result.sketch.metadata["refreshed"] is True
        assert result.error is None and result.code is None
        assert not result.retryable  # nothing to retry

    def test_spec_mismatch_is_structured_and_non_retryable(
        self, imdb_small, trained_sketch
    ):
        sketch, _ = trained_sketch
        result = try_refresh_sketch(
            sketch,
            imdb_small,
            spec_for_imdb(tables=("title", "movie_keyword")),
            n_queries=100,
        )
        assert not result.ok and result.sketch is None
        assert result.code == "spec_mismatch"
        assert not result.retryable  # a config bug; retrying burns time

    def test_unexpected_crash_becomes_internal_code(
        self, imdb_small, trained_sketch, monkeypatch
    ):
        sketch, _ = trained_sketch

        def explode(*args, **kwargs):
            raise RuntimeError("storage layer died")

        monkeypatch.setattr(
            "repro.core.builder.materialize_samples", explode
        )
        result = try_refresh_sketch(
            sketch, imdb_small, spec_for_imdb(), n_queries=100
        )
        assert not result.ok
        assert result.code == "internal"
        assert "storage layer died" in result.error
        assert result.retryable

    def test_too_few_requested_queries_is_insufficient(
        self, imdb_small, trained_sketch
    ):
        sketch, _ = trained_sketch
        result = try_refresh_sketch(
            sketch, imdb_small, spec_for_imdb(), n_queries=5, seed=4
        )
        assert not result.ok
        assert result.code == "insufficient_queries"

    def test_retryable_classification(self):
        retryable = RefreshResult(
            ok=False, error="x", code="insufficient_queries"
        )
        assert retryable.retryable
        assert RefreshResult(ok=False, error="x", code="internal").retryable
        assert not RefreshResult(
            ok=False, error="x", code="spec_mismatch"
        ).retryable
