"""Dataset diagnostics: verify that generated data is IMDb-like.

The whole reproduction rests on the synthetic data carrying the
correlations the paper attributes to the real IMDb ("a real-world
dataset that contains many correlations").  This module quantifies them
so tests, benchmarks, and users can audit a generated database instead
of trusting the generator:

* per-column skew (Zipf-ness) via the top-1% frequency share,
* cross-column dependence inside a table (Cramér's V on a contingency
  table, chi-squared based),
* cross-join dependence between a dimension attribute and a fact
  category (the keyword-era effect), via Spearman rank correlation of
  era vs. category-popularity-rank,
* fan-out coupling between fact tables (the shared latent popularity),
  via Spearman correlation of per-parent child counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..db.database import Database


@dataclass(frozen=True)
class CorrelationReport:
    """Headline dependence measures for one database."""

    kind_year_cramers_v: float
    keyword_era_spearman: float
    fanout_spearman: float
    top_keyword_share: float

    def is_correlated(self) -> bool:
        """True when every planted correlation is present and material."""
        return (
            self.kind_year_cramers_v > 0.15
            and abs(self.keyword_era_spearman) > 0.1
            and self.fanout_spearman > 0.2
            and self.top_keyword_share > 0.02
        )


def pearson_chi2(table: np.ndarray) -> float:
    """Pearson's chi-squared statistic of a contingency table (no
    continuity correction) against the independence expectation
    ``row_sum * col_sum / n``.  Every row and column sum must be > 0."""
    table = np.asarray(table, dtype=float)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    return float(np.sum((table - expected) ** 2 / expected))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; tied values share their mean rank."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    bounds = np.r_[starts, values.size]
    # Elements of run k hold sorted positions bounds[k] .. bounds[k+1]-1,
    # so their mean 1-based rank is (bounds[k] + 1 + bounds[k+1]) / 2.
    run_ranks = 0.5 * (bounds[:-1] + 1 + bounds[1:])
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(run_ranks, np.diff(bounds))
    return ranks


def spearman_rho(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rank correlation: Pearson's r on average ranks (NaN
    when either side is constant)."""
    ranks_a = _average_ranks(np.asarray(a))
    ranks_b = _average_ranks(np.asarray(b))
    if np.ptp(ranks_a) == 0 or np.ptp(ranks_b) == 0:
        return float("nan")
    return float(np.corrcoef(ranks_a, ranks_b)[0, 1])


def cramers_v(codes_a: np.ndarray, codes_b: np.ndarray) -> float:
    """Cramér's V between two categorical code arrays (0 = independent,
    1 = fully determined)."""
    if len(codes_a) != len(codes_b):
        raise ReproError("cramers_v needs equal-length arrays")
    if len(codes_a) == 0:
        return 0.0
    a_vals, a_inv = np.unique(codes_a, return_inverse=True)
    b_vals, b_inv = np.unique(codes_b, return_inverse=True)
    if len(a_vals) < 2 or len(b_vals) < 2:
        return 0.0
    table = np.zeros((len(a_vals), len(b_vals)))
    np.add.at(table, (a_inv, b_inv), 1.0)
    chi2 = pearson_chi2(table)
    n = table.sum()
    k = min(len(a_vals), len(b_vals))
    return float(np.sqrt(chi2 / (n * (k - 1))))


def _per_parent_counts(db: Database, fact: str, n_parents: int) -> np.ndarray:
    values = db.table(fact).column("movie_id").values
    return np.bincount(values, minlength=n_parents + 1)[1:]


def _decade_codes(years: np.ndarray) -> np.ndarray:
    return (years // 10).astype(np.int64)


def analyze_imdb_correlations(db: Database) -> CorrelationReport:
    """Compute the dependence report for a (synthetic) IMDb database."""
    title = db.table("title")
    years_col = title.column("production_year")
    valid = years_col.valid
    years = years_col.values

    # kind_id vs decade (within-table dependence).
    kinds = title.column("kind_id").values
    v = cramers_v(_decade_codes(years[valid]), kinds[valid])

    # keyword choice vs era (cross-join dependence): rank-correlate each
    # movie_keyword row's production decade with its keyword's peak rank.
    mk = db.table("movie_keyword")
    mk_movie = mk.column("movie_id").values
    mk_kw = mk.column("keyword_id").values
    year_of = np.zeros(title.n_rows + 1, dtype=np.int64)
    year_of[title.column("id").values] = years
    valid_of = np.zeros(title.n_rows + 1, dtype=bool)
    valid_of[title.column("id").values] = valid
    keep = valid_of[mk_movie]
    rows_kw = mk_kw[keep]
    rows_year = year_of[mk_movie[keep]].astype(float)
    # Proxy for a keyword's era: the mean year of the movies carrying it,
    # computed leave-one-out so a row cannot correlate with its own
    # contribution (singleton keywords would otherwise bias the measure
    # upward even on independent data).
    n_kw = int(rows_kw.max()) + 1 if rows_kw.size else 1
    kw_counts = np.bincount(rows_kw, minlength=n_kw)
    kw_year_sum = np.bincount(rows_kw, weights=rows_year, minlength=n_kw)
    multi = kw_counts[rows_kw] > 1
    loo_mean = (kw_year_sum[rows_kw[multi]] - rows_year[multi]) / (
        kw_counts[rows_kw[multi]] - 1
    )
    if multi.sum() > 2:
        rho_kw = spearman_rho(rows_year[multi], loo_mean)
    else:
        rho_kw = 0.0

    # Fan-out coupling between cast_info and movie_companies.
    ci_counts = _per_parent_counts(db, "cast_info", title.n_rows)
    mc_counts = _per_parent_counts(db, "movie_companies", title.n_rows)
    rho_fanout = spearman_rho(ci_counts, mc_counts)

    # Keyword skew: share of the single most frequent keyword.
    top_share = float(kw_counts.max() / max(kw_counts.sum(), 1))

    return CorrelationReport(
        kind_year_cramers_v=float(v),
        keyword_era_spearman=float(rho_kw),
        fanout_spearman=float(rho_fanout),
        top_keyword_share=top_share,
    )


def decorrelated_imdb(db: Database, seed: int = 0) -> Database:
    """A shuffled copy of the IMDb database with correlations destroyed.

    All *marginal* distributions are preserved, so single-table
    statistics, sample selectivities, and fan-out histograms are
    unchanged — but the dependence structure is wiped out:

    * fact-table FKs into ``title`` are remapped through a fresh random
      *bijection* of the title-id domain per table: every movie keeps a
      fan-out drawn from the same distribution, but which movie has
      which fan-out becomes independent across tables and independent of
      the movie's attributes;
    * every other non-primary-key column (including dimension FKs like
      ``keyword_id``) is independently *row-permuted*: value frequencies
      are untouched, pairings with the other columns are destroyed.

    Used by the correlation ablation: on this database the independence
    assumptions of the traditional estimators approximately hold, so
    their Table 1 tail should collapse — evidence that the gap on the
    correlated database really is about correlations.
    """
    import copy

    from ..db.column import Column
    from ..db.table import Table

    rng = np.random.default_rng(seed)
    out = Database(db.name + "-decorrelated")

    title_ids = db.table("title").column("id").values
    id_domain = int(title_ids.max()) + 1
    title_fks = {
        (fk.table, fk.column) for fk in db.foreign_keys if fk.ref_table == "title"
    }

    for name, table in db.tables.items():
        columns = {}
        for col_name, col in table.columns.items():
            if col_name == table.schema.primary_key:
                columns[col_name] = col
            elif (name, col_name) in title_fks:
                remap = np.zeros(id_domain, dtype=np.int64)
                remap[title_ids] = rng.permutation(title_ids)
                columns[col_name] = Column(
                    col.name, col.dtype, remap[col.values], col.valid.copy()
                )
            else:
                perm = rng.permutation(len(col))
                columns[col_name] = Column(
                    col.name,
                    col.dtype,
                    col.values[perm],
                    col.valid[perm],
                    dictionary=col.dictionary,
                )
        out.add_table(Table(copy.deepcopy(table.schema), columns))
    for fk in db.foreign_keys:
        out.add_foreign_key(fk)
    return out
