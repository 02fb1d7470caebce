"""Batch labelling: ``execute_counts`` on generated workloads.

The randomized oracle cross-checks live in ``test_executor_oracle.py``;
here the batch core is pinned on the generated IMDb and TPC-H
workloads that train sketches, so any change to the labels a build
trains on shows up as a digest mismatch.
"""

import hashlib

import pytest

from repro.db import execute_count, execute_counts
from repro.errors import QueryError
from repro.workload import (
    Predicate,
    TrainingQueryGenerator,
    spec_for_imdb,
    spec_for_imdb_templates,
    spec_for_tpch,
)

SPECS = {"imdb": spec_for_imdb, "templates": spec_for_imdb_templates, "tpch": spec_for_tpch}

#: sha256 prefixes of the label lists of 300 generated queries, seeds
#: 0-4, as labelled one query at a time by the executor these replaced.
PINNED_LABELS = {
    "imdb": ("64625ad263aad801", "af730e3408f7f8a7", "409180cc58101f84",
             "b8defbcc9bc80497", "8c3c298fe41f55e4"),
    "templates": ("8ee99fe00978345c", "f81d4e378c9d2346", "c55f8fe9793a3c59",
                  "4f2d2dfe50bb2e8f", "775e7fcf302e5346"),
    "tpch": ("c57bb1ab08636716", "f7656536b2c9cfa0", "ab126ac8d68dcd25",
             "011c695bf8083c3c", "76645c463acf8733"),
}


def digest(counts) -> str:
    return hashlib.sha256("\n".join(map(str, counts)).encode()).hexdigest()[:16]


def workload(request, name, seed, n=300):
    db = request.getfixturevalue("tpch_small" if name == "tpch" else "imdb_small")
    return db, TrainingQueryGenerator(db, SPECS[name](), seed=seed).draw_many(n)


@pytest.mark.parametrize("name", sorted(PINNED_LABELS))
def test_labels_are_pinned(request, name):
    for seed, want in enumerate(PINNED_LABELS[name]):
        db, queries = workload(request, name, seed)
        assert digest(execute_counts(db, queries)) == want, seed


@pytest.mark.parametrize("name", sorted(PINNED_LABELS))
def test_batch_equals_one_query_at_a_time(request, name):
    db, queries = workload(request, name, seed=7, n=120)
    batch = execute_counts(db, queries)
    assert batch == [execute_count(db, query) for query in queries]
    assert all(type(count) is int for count in batch)


def test_permuted_and_repeated_batches(request):
    db, queries = workload(request, "imdb", seed=3, n=200)
    want = dict(zip(queries, execute_counts(db, queries)))
    shuffled = queries[::-1][::2] + queries + queries[:50]
    assert execute_counts(db, shuffled) == [want[query] for query in shuffled]


def test_empty_batch(imdb_small):
    assert execute_counts(imdb_small, []) == []


def test_invalid_query_in_a_batch_raises_like_execute_count(request):
    db, queries = workload(request, "imdb", seed=0, n=10)
    bad = queries[3]
    alias = bad.aliases[0]
    bad = type(bad)(
        tables=bad.tables,
        joins=bad.joins,
        predicates=bad.predicates + (Predicate(alias, "ghost", "=", 1),),
    )
    with pytest.raises(QueryError) as single:
        execute_count(db, bad)
    with pytest.raises(QueryError) as batch:
        execute_counts(db, queries[:3] + [bad] + queries[4:])
    assert str(batch.value) == str(single.value)
