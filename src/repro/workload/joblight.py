"""A JOB-light-style evaluation workload.

Table 1 of the paper evaluates on JOB-light, a 70-query workload derived
from the Join Order Benchmark.  The real queries reference the original
IMDb's literals, so they cannot run against a synthetic database; this
module generates a workload with the documented *shape* instead:

* 70 queries over the six JOB-light tables,
* one to four joins, every query a star around ``title`` (all JOB-light
  joins are ``X.movie_id = t.id``),
* no string predicates and no disjunctions,
* mostly equality predicates on dimension-table attributes,
* the only range predicate is on ``title.production_year``.

Crucially, the training workload (generator.py) uses 0–2 joins and a
uniform operator mix, so evaluating on this workload exercises the same
distribution shift the paper highlights ("MSCN can generalize to
workloads with distributions different from the training data").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import QueryError
from ..rng import SeedLike, make_rng
from ..db.database import Database
from ..db.executor import execute_count
from ..db.query import JoinEdge, Predicate, Query, TableRef
from ..datasets.imdb import JOB_LIGHT_ALIASES

#: Fact tables joinable to title, with their equality-predicate columns.
_FACT_PREDICATES = {
    "movie_keyword": ("keyword_id",),
    "movie_info": ("info_type_id",),
    "movie_info_idx": ("info_type_id",),
    "movie_companies": ("company_type_id", "company_id"),
    "cast_info": ("role_id",),
}

#: JOB-light join-count histogram (1..4 joins); queries with 2-3 joins
#: dominate the original workload.
_JOIN_COUNT_WEIGHTS = {1: 0.2, 2: 0.35, 3: 0.3, 4: 0.15}


#: Probability a query carries a production_year range predicate.
YEAR_PREDICATE_PROB = 0.75
#: Probability a query carries an equality predicate on kind_id.
KIND_PREDICATE_PROB = 0.25
#: Probability each joined fact table carries an equality predicate.
FACT_PREDICATE_PROB = 0.7
#: Drawing budget per requested query before giving up.
MAX_ATTEMPTS_FACTOR = 50


@dataclass(frozen=True)
class JobLightConfig:
    """Workload size and seed; the predicate mix (the constants above)
    follows the original JOB-light."""

    n_queries: int = 70
    seed: int = 42
    #: Discard queries whose true cardinality is zero (JOB-light queries
    #: all return results on the real IMDb).
    require_nonzero: bool = True


def generate_job_light(
    db: Database, config: JobLightConfig | None = None, seed: SeedLike = None
) -> list[Query]:
    """Generate the JOB-light-style workload against ``db``.

    With ``require_nonzero`` the true cardinality of each candidate is
    checked with the exact executor and empty queries are rejected, so
    the returned workload is directly usable for Table 1.
    """
    cfg = config or JobLightConfig()
    rng = make_rng(cfg.seed if seed is None else seed)
    title = db.table("title")
    years = title.column("production_year").non_null_values()
    kinds = title.column("kind_id").non_null_values()
    if years.size == 0:
        raise QueryError("title.production_year has no values to draw from")

    fact_names = sorted(_FACT_PREDICATES)
    join_counts = np.array(sorted(_JOIN_COUNT_WEIGHTS))
    join_probs = np.array([_JOIN_COUNT_WEIGHTS[k] for k in join_counts], dtype=float)
    join_probs /= join_probs.sum()

    queries: list[Query] = []
    seen: set[Query] = set()
    attempts = 0
    max_attempts = cfg.n_queries * MAX_ATTEMPTS_FACTOR
    while len(queries) < cfg.n_queries:
        attempts += 1
        if attempts > max_attempts:
            raise QueryError(
                f"could not assemble {cfg.n_queries} non-empty JOB-light "
                f"queries in {max_attempts} attempts"
            )
        n_joins = int(rng.choice(join_counts, p=join_probs))
        chosen = rng.choice(len(fact_names), size=n_joins, replace=False)
        facts = [fact_names[int(i)] for i in chosen]

        tables = [TableRef("title", "t")] + [
            TableRef(f, JOB_LIGHT_ALIASES[f]) for f in facts
        ]
        joins = tuple(
            JoinEdge(JOB_LIGHT_ALIASES[f], "movie_id", "t", "id") for f in facts
        )

        predicates: list[Predicate] = []
        if rng.random() < YEAR_PREDICATE_PROB:
            year = int(years[int(rng.integers(0, years.size))])
            op = str(rng.choice(["=", ">", "<"], p=[0.25, 0.5, 0.25]))
            predicates.append(Predicate("t", "production_year", op, year))
        if rng.random() < KIND_PREDICATE_PROB:
            kind = int(kinds[int(rng.integers(0, kinds.size))])
            predicates.append(Predicate("t", "kind_id", "=", kind))
        for fact in facts:
            if rng.random() >= FACT_PREDICATE_PROB:
                continue
            columns = _FACT_PREDICATES[fact]
            column = str(columns[int(rng.integers(0, len(columns)))])
            # Literals are drawn uniformly over the *distinct* values:
            # benchmark queries ask about specific entities regardless of
            # their popularity, which is exactly what pushes sampling-
            # based estimators into the paper's 0-tuple regime.
            pool = np.unique(db.table(fact).column(column).non_null_values())
            literal = int(pool[int(rng.integers(0, pool.size))])
            predicates.append(
                Predicate(JOB_LIGHT_ALIASES[fact], column, "=", literal)
            )
        if not predicates:
            continue  # every JOB-light query has at least one selection

        query = Query(tables=tuple(tables), joins=joins, predicates=tuple(predicates))
        if query in seen:
            continue
        if cfg.require_nonzero and execute_count(db, query) == 0:
            continue
        seen.add(query)
        queries.append(query)
    return queries
