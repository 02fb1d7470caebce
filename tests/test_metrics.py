"""Unit and property tests for q-error metrics (paper Table 1 rows)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.metrics import (
    MIN_CARDINALITY,
    Counter,
    Gauge,
    LatencySummary,
    percentile,
    QErrorSummary,
    format_table,
    geometric_mean_qerror,
    qerror,
    qerrors,
    relative_error,
    summarize_estimates,
    summarize_qerrors,
)

positive = st.floats(min_value=1e-3, max_value=1e12, allow_nan=False)


class TestQError:
    def test_exact_estimate_is_one(self):
        assert qerror(100.0, 100.0) == 1.0

    def test_overestimate(self):
        assert qerror(200.0, 100.0) == pytest.approx(2.0)

    def test_underestimate(self):
        assert qerror(50.0, 100.0) == pytest.approx(2.0)

    def test_zero_truth_clamped(self):
        # truth clamps to MIN_CARDINALITY, so q = estimate.
        assert qerror(10.0, 0.0) == pytest.approx(10.0)

    def test_zero_estimate_clamped(self):
        assert qerror(0.0, 10.0) == pytest.approx(10.0)

    def test_negative_estimate_clamped(self):
        assert qerror(-5.0, 10.0) == pytest.approx(10.0)

    @given(positive, positive)
    def test_symmetry(self, a, b):
        assert qerror(a, b) == pytest.approx(qerror(b, a), rel=1e-9)

    @given(positive, positive)
    def test_at_least_one(self, a, b):
        assert qerror(a, b) >= 1.0

    @given(positive)
    def test_identity(self, a):
        assert qerror(a, a) == pytest.approx(1.0)

    @given(positive, st.floats(min_value=1.0, max_value=1e6))
    def test_scaling_factor(self, truth, factor):
        truth = max(truth, MIN_CARDINALITY)
        assert qerror(truth * factor, truth) == pytest.approx(factor, rel=1e-9)


class TestQErrorsVector:
    def test_matches_scalar(self):
        est = [10.0, 20.0, 5.0]
        tru = [10.0, 10.0, 10.0]
        expected = [qerror(e, t) for e, t in zip(est, tru)]
        assert np.allclose(qerrors(est, tru), expected)

    def test_length_mismatch_raises(self):
        with pytest.raises(ReproError):
            qerrors([1.0, 2.0], [1.0])


class TestSummary:
    def test_summary_fields(self):
        errors = np.arange(1, 101, dtype=float)  # 1..100
        summary = summarize_qerrors(errors)
        assert summary.median == pytest.approx(50.5)
        assert summary.max == 100.0
        assert summary.mean == pytest.approx(50.5)
        assert summary.count == 100
        assert summary.p90 >= summary.median
        assert summary.p99 >= summary.p95 >= summary.p90

    def test_row_order_matches_paper(self):
        summary = summarize_qerrors([1.0, 2.0, 3.0])
        assert QErrorSummary.COLUMNS == ("median", "90th", "95th", "99th", "max", "mean")
        assert summary.row()[0] == summary.median
        assert summary.row()[-1] == summary.mean

    def test_empty_raises(self):
        with pytest.raises(ReproError):
            summarize_qerrors([])

    def test_below_one_raises(self):
        with pytest.raises(ReproError):
            summarize_qerrors([0.5])

    def test_as_dict(self):
        summary = summarize_qerrors([2.0, 4.0])
        d = summary.as_dict()
        assert d["median"] == pytest.approx(3.0)
        assert d["max"] == 4.0

    def test_summarize_estimates(self):
        summary = summarize_estimates([10.0, 40.0], [10.0, 10.0])
        assert summary.max == pytest.approx(4.0)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e9), min_size=1, max_size=50))
    def test_percentile_ordering_property(self, errors):
        summary = summarize_qerrors(errors)
        assert 1.0 <= summary.median <= summary.p90 + 1e-9
        assert summary.p90 <= summary.p95 <= summary.p99 <= summary.max + 1e-9
        assert summary.mean <= summary.max + 1e-9

    @given(st.lists(st.floats(min_value=1.0, max_value=1e9), min_size=1, max_size=50))
    def test_mean_is_strictly_contained_in_sample_range(self, errors):
        # Strict containment, zero tolerance: np.mean's pairwise
        # summation can land 1 ULP outside [min, max] (the old code
        # clamped to hide it); the exact-fallback mean cannot.
        summary = summarize_qerrors(errors)
        assert min(errors) <= summary.mean <= summary.max

    def test_mean_containment_ulp_regression(self):
        # np.mean([3.3] * 6) lands one ULP above the sample max, so
        # this exact input failed strict containment before the
        # exact-mean fix (the old code clamped it instead).
        assert float(np.mean(np.array([3.3] * 6))) > 3.3  # the trap exists
        summary = summarize_qerrors([3.3] * 6)
        assert summary.mean == 3.3
        assert summary.max == 3.3


class TestFormatting:
    def test_format_table_contains_all_rows(self):
        rows = {
            "Deep Sketch": summarize_qerrors([1.5, 2.0]),
            "PostgreSQL": summarize_qerrors([10.0, 20.0]),
        }
        text = format_table(rows)
        assert "Deep Sketch" in text
        assert "PostgreSQL" in text
        assert "median" in text

    def test_str_is_single_line(self):
        assert "\n" not in str(summarize_qerrors([1.0, 2.0]))


class TestAuxMetrics:
    def test_relative_error_signs(self):
        assert relative_error(150.0, 100.0) == pytest.approx(0.5)
        assert relative_error(50.0, 100.0) == pytest.approx(-0.5)

    def test_geometric_mean(self):
        assert geometric_mean_qerror([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_empty_raises(self):
        with pytest.raises(ReproError):
            geometric_mean_qerror([])


class TestServingTelemetry:
    """The primitives the serving engine wires its stats() through."""

    def test_counter_increments(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_is_thread_safe(self):
        import threading

        counter = Counter()

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000

    def test_gauge_set_and_adjust(self):
        gauge = Gauge()
        gauge.adjust(7)
        assert gauge.value == 7
        gauge.adjust(-3)
        assert gauge.value == 4

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.99) == 4.0
        assert percentile(values, 0.0) == 1.0
        assert percentile([], 0.99) == 0.0

    def test_latency_summary_shape_and_values(self):
        summary = LatencySummary(window=16)
        for v in (0.010, 0.020, 0.030, 0.040):
            summary.observe(v)
        s = summary.summary()
        assert s["count"] == 4.0
        assert s["p50"] == 0.020
        assert s["max"] == 0.040
        assert s["p99"] == 0.040
        assert len(summary) == 4

    def test_latency_summary_window_is_bounded(self):
        summary = LatencySummary(window=4)
        for v in range(10):
            summary.observe(float(v))
        s = summary.summary()
        assert s["count"] == 4.0
        assert s["p50"] == 7.0  # only the newest four remain

    def test_latency_summary_empty(self):
        s = LatencySummary().summary()
        assert s == {"count": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}

    def test_latency_summary_rejects_bad_window(self):
        with pytest.raises(ReproError):
            LatencySummary(window=0)
