"""Synthetic IMDb-like dataset generator.

The demo runs on the real Internet Movie Database, which is not available
offline; this module generates a database with the same schema subset
(the six JOB-light tables plus their dimension tables) and the same
*statistical character*: heavy-tailed category popularity and strong
correlations within and across tables.  See DESIGN.md's substitution
table for the rationale.

Planted correlations (each one defeats an independence assumption):

* ``title.kind_id`` depends on ``production_year`` (episodes explode
  after ~1990, feature films dominate earlier decades);
* keyword choice in ``movie_keyword`` is biased toward keywords whose
  popularity peak is near the movie's production year — a cross-join
  correlation between ``t.production_year`` and ``mk.keyword_id``;
* each movie has a latent *popularity* factor, increasing with recency,
  that drives fan-outs in ``cast_info``, ``movie_companies``, and
  ``movie_info_idx`` simultaneously (cross-table fan-out correlation);
* ``movie_companies.company_type_id`` and the per-movie info-type mix
  drift with the era.

The generator is fully vectorized and deterministic given the config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..rng import SeedLike, make_rng, spawn
from ..db.column import Column
from ..db.database import Database
from ..db.schema import ColumnSchema, ForeignKey, TableSchema
from ..db.table import Table
from ..db.types import DType
from .distributions import (
    conditional_counts,
    era_biased_choice,
    mixture_years,
    repeat_parent_rows,
    zipf_weights,
)

#: The seven IMDb title kinds, in catalog order (ids are 1-based).
KIND_NAMES = (
    "movie",
    "tv series",
    "tv movie",
    "video movie",
    "tv mini series",
    "video game",
    "episode",
)

#: Named keywords guaranteed to exist (the paper's example query uses
#: ``artificial-intelligence``); each maps to a popularity peak year.
NAMED_KEYWORDS = {
    "artificial-intelligence": 2010,
    "based-on-novel": 1985,
    "character-name-in-title": 1965,
    "murder": 1995,
    "independent-film": 2003,
    "superhero": 2012,
}

#: Country codes for company_name, most common first.
COUNTRY_CODES = ("us", "gb", "de", "fr", "jp", "in", "ca", "it", "es", "au")

#: IMDb's company_type dimension (ids 1 and 2 carry all the volume).
COMPANY_TYPE_NAMES = (
    "production companies",
    "distributors",
    "special effects companies",
    "miscellaneous companies",
)

#: IMDb's role_type dimension (cast_info.role_id references it).
ROLE_NAMES = (
    "actor",
    "actress",
    "producer",
    "writer",
    "cinematographer",
    "composer",
    "costume designer",
    "director",
    "editor",
    "miscellaneous crew",
    "production designer",
    "guest",
)

YEAR_LOW = 1880
YEAR_HIGH = 2019

#: Row counts at ``scale=1.0`` (``ImdbConfig.scaled`` multiplies them).
N_TITLES = 20_000
N_KEYWORDS = 2_000
N_COMPANIES = 1_500
N_PERSONS = 30_000
#: Size of the ``info_type`` dimension (not scaled).
N_INFO_TYPES = 113


@dataclass(frozen=True)
class ImdbConfig:
    """Scale and seed of the synthetic IMDb.

    ``scale=1.0`` (the ``N_*`` row counts above) yields roughly 20k
    titles and ~200k total rows — small enough that exact COUNT(*)
    labels for tens of thousands of training queries stay cheap, large
    enough for meaningful estimation errors.
    """

    scale: float = 1.0
    seed: int = 7

    def scaled(self, base: int) -> int:
        value = int(round(base * self.scale))
        if value <= 0:
            raise ReproError(f"scale {self.scale} collapses table size to zero")
        return value


def _int_column(name: str, values: np.ndarray, valid: np.ndarray | None = None) -> Column:
    return Column.from_ints(name, values, valid)


def _title_table(cfg: ImdbConfig, rng: np.random.Generator) -> tuple[Table, dict]:
    """Generate ``title`` plus latent per-movie context reused downstream."""
    n = cfg.scaled(N_TITLES)
    ids = np.arange(1, n + 1, dtype=np.int64)

    years = mixture_years(
        rng,
        n,
        components=[(0.10, 1935.0, 20.0), (0.25, 1975.0, 18.0), (0.65, 2005.0, 9.0)],
        low=YEAR_LOW,
        high=YEAR_HIGH,
    )
    year_valid = rng.random(n) > 0.03  # ~3% NULL production_year

    # Kind drifts with era: feature films dominate early decades,
    # episodes dominate the streaming era.
    kind_base = np.array([0.42, 0.09, 0.08, 0.07, 0.05, 0.05, 0.24])
    kind_peaks = np.array([1970.0, 1995.0, 1990.0, 2000.0, 1998.0, 2008.0, 2010.0])
    kind_ids = (
        era_biased_choice(rng, kind_base, kind_peaks, years, width=30.0) + 1
    ).astype(np.int64)

    episode_kind = len(KIND_NAMES)  # id 7
    is_episode = kind_ids == episode_kind
    season = np.ones(n, dtype=np.int64)
    episode = np.ones(n, dtype=np.int64)
    n_episodes = int(is_episode.sum())
    if n_episodes:
        season[is_episode] = rng.choice(
            30, size=n_episodes, p=zipf_weights(30, 1.3)
        ) + 1
        episode[is_episode] = rng.integers(1, 51, size=n_episodes)

    # Latent popularity: recency-skewed, heavy-tailed; this single factor
    # drives cast, company, and rating fan-outs (cross-table correlation).
    # The gamma shape < 1 concentrates mass near zero with a long tail,
    # so a filtered subset of titles can have a fan-out far from the
    # average — the independence-assumption killer.
    recency = np.clip((years - 1960.0) / (YEAR_HIGH - 1960.0), 0.0, 1.0)
    popularity = rng.gamma(shape=1.2, scale=0.8, size=n) * (0.15 + recency**1.5 * 1.6)

    schema = TableSchema(
        "title",
        [
            ColumnSchema("id", DType.INT64),
            ColumnSchema("kind_id", DType.INT64),
            ColumnSchema("production_year", DType.INT64, nullable=True),
            ColumnSchema("season_nr", DType.INT64, nullable=True),
            ColumnSchema("episode_nr", DType.INT64, nullable=True),
        ],
        primary_key="id",
    )
    table = Table(
        schema,
        {
            "id": _int_column("id", ids),
            "kind_id": _int_column("kind_id", kind_ids),
            "production_year": _int_column("production_year", years, year_valid),
            "season_nr": _int_column("season_nr", season, is_episode),
            "episode_nr": _int_column("episode_nr", episode, is_episode),
        },
    )
    context = {
        "ids": ids,
        "years": years,
        "year_valid": year_valid,
        "kind_ids": kind_ids,
        "recency": recency,
        "popularity": popularity,
    }
    return table, context


def _keyword_table(cfg: ImdbConfig, rng: np.random.Generator) -> tuple[Table, np.ndarray]:
    """Generate ``keyword`` and return each keyword's popularity peak year."""
    n = cfg.scaled(N_KEYWORDS)
    n = max(n, len(NAMED_KEYWORDS))
    names = [f"keyword-{i:05d}" for i in range(1, n + 1)]
    peaks = rng.uniform(1930.0, 2018.0, size=n)
    # Recent peaks are more likely (keyword vocabulary grows over time).
    recent = rng.random(n) < 0.5
    peaks[recent] = rng.uniform(1990.0, 2018.0, size=int(recent.sum()))
    for offset, (name, peak) in enumerate(NAMED_KEYWORDS.items()):
        names[offset] = name
        peaks[offset] = peak

    schema = TableSchema(
        "keyword",
        [ColumnSchema("id", DType.INT64), ColumnSchema("keyword", DType.STRING)],
        primary_key="id",
    )
    table = Table(
        schema,
        {
            "id": _int_column("id", np.arange(1, n + 1)),
            "keyword": Column.from_strings("keyword", names),
        },
    )
    return table, peaks


def _company_table(cfg: ImdbConfig, rng: np.random.Generator) -> tuple[Table, np.ndarray]:
    """Generate ``company_name``; returns per-company era peaks."""
    n = cfg.scaled(N_COMPANIES)
    codes = rng.choice(
        len(COUNTRY_CODES), size=n, p=zipf_weights(len(COUNTRY_CODES), 1.0)
    )
    names = [f"company-{i:05d}" for i in range(1, n + 1)]
    peaks = rng.uniform(1940.0, 2018.0, size=n)

    schema = TableSchema(
        "company_name",
        [
            ColumnSchema("id", DType.INT64),
            ColumnSchema("name", DType.STRING),
            ColumnSchema("country_code", DType.STRING),
        ],
        primary_key="id",
    )
    table = Table(
        schema,
        {
            "id": _int_column("id", np.arange(1, n + 1)),
            "name": Column.from_strings("name", names),
            "country_code": Column.from_strings(
                "country_code", [COUNTRY_CODES[c] for c in codes]
            ),
        },
    )
    return table, peaks


def _label_dimension(name: str, label_column: str, labels: list[str]) -> Table:
    schema = TableSchema(
        name,
        [ColumnSchema("id", DType.INT64), ColumnSchema(label_column, DType.STRING)],
        primary_key="id",
    )
    return Table(
        schema,
        {
            "id": _int_column("id", np.arange(1, len(labels) + 1)),
            label_column: Column.from_strings(label_column, labels),
        },
    )


def _fact_table(
    name: str,
    movie_ids: np.ndarray,
    extra: dict[str, np.ndarray],
) -> Table:
    """Assemble a fact table ``(id, movie_id, *extra)``."""
    n = len(movie_ids)
    columns = {
        "id": _int_column("id", np.arange(1, n + 1)),
        "movie_id": _int_column("movie_id", movie_ids),
    }
    decls = [ColumnSchema("id", DType.INT64), ColumnSchema("movie_id", DType.INT64)]
    for col_name, values in extra.items():
        columns[col_name] = _int_column(col_name, values)
        decls.append(ColumnSchema(col_name, DType.INT64))
    return Table(TableSchema(name, decls, primary_key="id"), columns)


def generate_imdb(config: ImdbConfig | None = None, seed: SeedLike = None) -> Database:
    """Generate the synthetic IMDb database.

    ``seed`` overrides ``config.seed`` when given.  The result contains
    the six JOB-light tables (``title``, ``movie_keyword``, ``movie_info``,
    ``movie_info_idx``, ``movie_companies``, ``cast_info``) and the
    dimension tables ``keyword``, ``company_name``, ``info_type``,
    ``kind_type``, wired up with the IMDb foreign keys.
    """
    cfg = config or ImdbConfig()
    rng = make_rng(cfg.seed if seed is None else seed)
    streams = spawn(rng, 8)
    (title_rng, keyword_rng, company_rng, mk_rng, mi_rng, mii_rng, mc_rng, ci_rng) = streams

    db = Database("imdb")

    title, ctx = _title_table(cfg, title_rng)
    keyword, keyword_peaks = _keyword_table(cfg, keyword_rng)
    company, company_peaks = _company_table(cfg, company_rng)
    info_type = _label_dimension(
        "info_type", "info", [f"info-type-{i:03d}" for i in range(1, N_INFO_TYPES + 1)]
    )
    kind_type = _label_dimension("kind_type", "kind", list(KIND_NAMES))
    company_type = _label_dimension("company_type", "kind", list(COMPANY_TYPE_NAMES))
    role_type = _label_dimension("role_type", "role", list(ROLE_NAMES))
    for table in (title, keyword, company, info_type, kind_type, company_type, role_type):
        db.add_table(table)

    years = ctx["years"]
    ids = ctx["ids"]
    recency = ctx["recency"]
    popularity = ctx["popularity"]
    kind_ids = ctx["kind_ids"]
    is_feature = kind_ids == 1

    # ------------------------------------------------------------------
    # movie_keyword: keyword choice correlates with production year.
    # ------------------------------------------------------------------
    mk_means = 0.5 + 3.5 * recency
    mk_counts = conditional_counts(mk_rng, mk_means, max_count=25)
    mk_parent = repeat_parent_rows(mk_counts)
    n_kw = len(keyword)
    kw_base = zipf_weights(n_kw, 1.05)
    mk_keywords = (
        era_biased_choice(
            mk_rng, kw_base, keyword_peaks, years[mk_parent], width=8.0
        )
        + 1
    )
    db.add_table(
        _fact_table("movie_keyword", ids[mk_parent], {"keyword_id": mk_keywords})
    )

    # ------------------------------------------------------------------
    # movie_info: info-type mix drifts with era and kind.
    # ------------------------------------------------------------------
    mi_means = 1.5 + 3.5 * recency + 1.5 * is_feature
    mi_counts = conditional_counts(mi_rng, mi_means, max_count=30)
    mi_parent = repeat_parent_rows(mi_counts)
    it_base = zipf_weights(N_INFO_TYPES, 0.9)
    it_peaks = np.linspace(1930.0, 2018.0, N_INFO_TYPES)
    mi_types = (
        era_biased_choice(mi_rng, it_base, it_peaks, years[mi_parent], width=35.0) + 1
    )
    db.add_table(_fact_table("movie_info", ids[mi_parent], {"info_type_id": mi_types}))

    # ------------------------------------------------------------------
    # movie_info_idx: rating rows, driven by the latent popularity.
    # ------------------------------------------------------------------
    mii_means = 0.25 + 1.1 * popularity
    mii_counts = conditional_counts(mii_rng, mii_means, max_count=10)
    mii_parent = repeat_parent_rows(mii_counts)
    rating_types = np.arange(99, 99 + 15)  # the mii info-type band
    mii_types = rating_types[
        mii_rng.choice(len(rating_types), size=len(mii_parent), p=zipf_weights(15, 1.0))
    ]
    db.add_table(
        _fact_table("movie_info_idx", ids[mii_parent], {"info_type_id": mii_types})
    )

    # ------------------------------------------------------------------
    # movie_companies: company era-biased; type drifts toward
    # distribution deals in recent decades.
    # ------------------------------------------------------------------
    mc_means = 0.4 + 1.3 * popularity
    mc_counts = conditional_counts(mc_rng, mc_means, max_count=12)
    mc_parent = repeat_parent_rows(mc_counts)
    co_base = zipf_weights(len(company), 1.1)
    mc_companies = (
        era_biased_choice(
            mc_rng, co_base, company_peaks, years[mc_parent], width=10.0
        )
        + 1
    )
    p_distribution = 0.10 + 0.80 * np.clip(
        (years[mc_parent] - 1960.0) / 60.0, 0.0, 1.0
    )
    mc_types = np.where(mc_rng.random(len(mc_parent)) < p_distribution, 2, 1)
    db.add_table(
        _fact_table(
            "movie_companies",
            ids[mc_parent],
            {"company_id": mc_companies, "company_type_id": mc_types},
        )
    )

    # ------------------------------------------------------------------
    # cast_info: cast size driven by popularity and kind; role mix
    # depends on kind (features credit more actors).
    # ------------------------------------------------------------------
    ci_means = (1.0 + 5.0 * popularity) * np.where(is_feature, 1.5, 0.7)
    ci_counts = conditional_counts(ci_rng, ci_means, max_count=40)
    ci_parent = repeat_parent_rows(ci_counts)
    n_persons = cfg.scaled(N_PERSONS)
    persons = ci_rng.choice(n_persons, size=len(ci_parent), p=zipf_weights(n_persons, 0.8)) + 1
    feature_roles = zipf_weights(12, 1.4)
    episode_roles = np.roll(zipf_weights(12, 1.2), 2)  # shifted mix for TV
    role_pick = ci_rng.random(len(ci_parent))
    feature_parent = is_feature[ci_parent]
    roles = np.empty(len(ci_parent), dtype=np.int64)
    for mask, weights in ((feature_parent, feature_roles), (~feature_parent, episode_roles)):
        rows = np.flatnonzero(mask)
        if rows.size:
            cdf = np.cumsum(weights)
            roles[rows] = np.searchsorted(cdf, role_pick[rows], side="right") + 1
    roles = np.clip(roles, 1, 12)
    db.add_table(
        _fact_table("cast_info", ids[ci_parent], {"person_id": persons, "role_id": roles})
    )

    # ------------------------------------------------------------------
    # foreign keys (the demo's automatic join predicates use these)
    # ------------------------------------------------------------------
    for table_name, column, ref_table, ref_column in (
        ("title", "kind_id", "kind_type", "id"),
        ("movie_keyword", "movie_id", "title", "id"),
        ("movie_keyword", "keyword_id", "keyword", "id"),
        ("movie_info", "movie_id", "title", "id"),
        ("movie_info_idx", "movie_id", "title", "id"),
        ("movie_companies", "movie_id", "title", "id"),
        ("movie_companies", "company_id", "company_name", "id"),
        ("movie_companies", "company_type_id", "company_type", "id"),
        ("cast_info", "movie_id", "title", "id"),
        ("cast_info", "role_id", "role_type", "id"),
    ):
        db.add_foreign_key(ForeignKey(table_name, column, ref_table, ref_column))
    return db


#: JOB-light's table set and conventional aliases.
JOB_LIGHT_ALIASES = {
    "title": "t",
    "movie_keyword": "mk",
    "movie_info": "mi",
    "movie_info_idx": "mi_idx",
    "movie_companies": "mc",
    "cast_info": "ci",
}

#: Columns JOB-light-style queries filter on, per table, with the
#: operator classes the workload uses on them.
JOB_LIGHT_PREDICATE_COLUMNS = {
    "title": ("production_year", "kind_id", "season_nr"),
    "movie_keyword": ("keyword_id",),
    "movie_info": ("info_type_id",),
    "movie_info_idx": ("info_type_id",),
    "movie_companies": ("company_id", "company_type_id"),
    "cast_info": ("role_id", "person_id"),
}
