"""Dataset-diagnostics tests: correlation audit and decorrelation."""

import numpy as np
import pytest

from repro.datasets.validation import (
    CorrelationReport,
    analyze_imdb_correlations,
    cramers_v,
    decorrelated_imdb,
    pearson_chi2,
    spearman_rho,
)
from repro.errors import ReproError
from tests.helpers import pinned_statistics_inputs


class TestCramersV:
    def test_independent_is_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 5, 20_000)
        b = rng.integers(0, 5, 20_000)
        assert cramers_v(a, b) < 0.05

    def test_identical_is_one(self):
        a = np.arange(1000) % 4
        assert cramers_v(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_mapping_is_one(self):
        a = np.arange(1000) % 4
        b = (a + 2) % 4  # bijection of categories
        assert cramers_v(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_single_category(self):
        assert cramers_v(np.zeros(10), np.arange(10)) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            cramers_v(np.zeros(3), np.zeros(4))

    def test_empty(self):
        assert cramers_v(np.empty(0), np.empty(0)) == 0.0


class TestStatisticsPinned:
    """The numpy chi-squared and Spearman statistics, pinned to the values
    ``scipy.stats`` (1.17.1) returns on the same inputs."""

    @pytest.fixture(scope="class")
    def samples(self):
        return pinned_statistics_inputs()

    def test_chi2_and_cramers_v(self, samples):
        _, _, x, y = samples
        table = np.zeros((7, 7))
        np.add.at(table, (x, y), 1.0)
        assert pearson_chi2(table) == pytest.approx(551.9974349024839, rel=1e-12)
        assert cramers_v(x, y) == pytest.approx(0.4795820380387158, rel=1e-12)

    def test_spearman_with_ties(self, samples):
        _, _, x, y = samples
        assert spearman_rho(x, y) == pytest.approx(0.2562597134336455, rel=1e-12)

    def test_spearman_continuous(self, samples):
        a, b, _, _ = samples
        assert spearman_rho(a[:250], b) == pytest.approx(
            0.0071782268516296256, rel=1e-12
        )

    def test_spearman_constant_input_is_nan(self):
        assert np.isnan(spearman_rho(np.ones(5), np.arange(5)))

    def test_correlation_reports(self, imdb_small):
        expected = {
            "original": (0.25646223720720596, 0.7161294861304432,
                         0.45419197239528725, 0.29041429731925267),
            "decorrelated": (0.08016374493443408, -0.1160748177243198,
                             -0.02298153887867268, 0.2899142507145774),
        }
        for name, db in (
            ("original", imdb_small),
            ("decorrelated", decorrelated_imdb(imdb_small, seed=1)),
        ):
            report = analyze_imdb_correlations(db)
            got = (
                report.kind_year_cramers_v,
                report.keyword_era_spearman,
                report.fanout_spearman,
                report.top_keyword_share,
            )
            assert got == pytest.approx(expected[name], rel=1e-12), name


class TestCorrelationReport:
    def test_synthetic_imdb_is_correlated(self, imdb_small):
        report = analyze_imdb_correlations(imdb_small)
        assert report.is_correlated(), report

    def test_report_fields_finite(self, imdb_small):
        report = analyze_imdb_correlations(imdb_small)
        for value in (
            report.kind_year_cramers_v,
            report.keyword_era_spearman,
            report.fanout_spearman,
            report.top_keyword_share,
        ):
            assert np.isfinite(value)

    def test_is_correlated_logic(self):
        strong = CorrelationReport(0.5, 0.5, 0.5, 0.1)
        weak = CorrelationReport(0.01, 0.0, 0.0, 0.001)
        assert strong.is_correlated()
        assert not weak.is_correlated()


class TestDecorrelation:
    @pytest.fixture(scope="class")
    def shuffled(self, request):
        imdb = request.getfixturevalue("imdb_small")
        return imdb, decorrelated_imdb(imdb, seed=1)

    def test_marginals_preserved(self, shuffled):
        # movie_id columns are bijectively remapped (their *fan-out
        # histogram* is the preserved invariant, checked below); every
        # other column must keep its exact value multiset.
        original, shuffled_db = shuffled
        for name in ("title", "movie_keyword", "cast_info"):
            for col_name, col in original.table(name).columns.items():
                if col_name == "movie_id":
                    continue
                other = shuffled_db.table(name).column(col_name)
                assert np.array_equal(
                    np.sort(col.values[col.valid]),
                    np.sort(other.values[other.valid]),
                ), f"{name}.{col_name} marginal changed"

    def test_referential_integrity_preserved(self, shuffled):
        _, shuffled_db = shuffled
        for fk in shuffled_db.foreign_keys:
            child = shuffled_db.table(fk.table).column(fk.column)
            parent = shuffled_db.table(fk.ref_table).column(fk.ref_column)
            assert np.isin(child.non_null_values(), parent.values).all(), str(fk)

    def test_correlations_destroyed(self, shuffled):
        original, shuffled_db = shuffled
        before = analyze_imdb_correlations(original)
        after = analyze_imdb_correlations(shuffled_db)
        # Each dependence measure must collapse relative to the original
        # (small residuals remain from finite-sample/leave-one-out bias).
        assert after.kind_year_cramers_v < 0.5 * before.kind_year_cramers_v
        assert abs(after.keyword_era_spearman) < 0.35 * abs(
            before.keyword_era_spearman
        )
        assert abs(after.fanout_spearman) < 0.35 * abs(before.fanout_spearman)
        assert not after.is_correlated()

    def test_fanout_distribution_preserved(self, shuffled):
        original, shuffled_db = shuffled
        n = original.table("title").n_rows
        for fact in ("cast_info", "movie_companies"):
            orig_counts = np.bincount(
                original.table(fact).column("movie_id").values, minlength=n + 1
            )
            new_counts = np.bincount(
                shuffled_db.table(fact).column("movie_id").values, minlength=n + 1
            )
            assert np.array_equal(np.sort(orig_counts), np.sort(new_counts))

    def test_queries_still_execute(self, shuffled):
        from repro.db import execute_count, parse_sql

        _, shuffled_db = shuffled
        count = execute_count(
            shuffled_db,
            parse_sql(
                "SELECT COUNT(*) FROM title t, movie_keyword mk "
                "WHERE mk.movie_id=t.id AND t.production_year>2000;"
            ),
        )
        assert count > 0
