"""The numpy statistics against scipy.stats as an oracle.

scipy is a test-only dependency: the package computes the KS statistic
(drift detection), Pearson's chi-squared and Spearman's rho (dataset
diagnostics) with numpy alone.  These properties hold them to scipy on
arbitrary inputs; the module skips where scipy is not installed.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

scipy_stats = pytest.importorskip("scipy.stats")

from repro.core.maintenance import ks_statistic  # noqa: E402
from repro.datasets.validation import pearson_chi2, spearman_rho  # noqa: E402

REL = 1e-12
# A value the oracle puts at (or within rounding of) zero has no
# meaningful relative error; below this it is compared absolutely.
ABS_FLOOR = 1e-14

values = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-4, 4).map(float),  # heavy ties
)
samples = st.lists(values, min_size=1, max_size=60).map(np.array)


@settings(max_examples=100, deadline=None)
@given(samples, samples)
def test_ks_statistic_equals_ks_2samp(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # exact-mode fallback notices
        expected = scipy_stats.ks_2samp(a, b).statistic
    assert ks_statistic(a, b) == expected


tables = st.tuples(st.integers(2, 6), st.integers(2, 6)).flatmap(
    lambda shape: st.lists(
        st.integers(0, 40), min_size=shape[0] * shape[1],
        max_size=shape[0] * shape[1],
    ).map(lambda cells: np.array(cells, dtype=float).reshape(shape))
)


@settings(max_examples=100, deadline=None)
@given(tables)
def test_pearson_chi2_matches_chi2_contingency(table):
    # chi2_contingency rejects a zero row or column sum; so does the
    # statistic (the independence expectation has a zero cell).
    if (table.sum(axis=0) == 0).any() or (table.sum(axis=1) == 0).any():
        return
    expected = scipy_stats.chi2_contingency(table, correction=False)[0]
    assert math.isclose(pearson_chi2(table), expected, rel_tol=REL, abs_tol=ABS_FLOOR)


pairs = st.integers(2, 80).flatmap(
    lambda n: st.tuples(
        st.lists(values, min_size=n, max_size=n).map(np.array),
        st.lists(values, min_size=n, max_size=n).map(np.array),
    )
)


@settings(max_examples=100, deadline=None)
@given(pairs)
def test_spearman_rho_matches_spearmanr(pair):
    a, b = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant-input warning
        expected = scipy_stats.spearmanr(a, b).statistic
    got = spearman_rho(a, b)
    if np.isnan(expected):
        assert np.isnan(got)
    else:
        assert math.isclose(got, expected, rel_tol=REL, abs_tol=ABS_FLOOR)
