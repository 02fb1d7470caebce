"""Templated workload suites (DSB/TPC-H-style parameterized queries).

The uniform generator (:mod:`repro.workload.generator`) draws every
query independently, so a uniform train/test split shares *templates*
between the two sides and only holds out literals.  Benchmark suites
like DSB and the JOB are organized the other way around: a fixed set of
named templates ("same query, different constants"), each instantiated
many times.  That structure is what makes template-level generalization
measurable — train on some templates, evaluate on *held-out* templates
(see :mod:`repro.workload.splits`) — and what a realistic serving
workload looks like: a Zipfian mix over templates rather than a uniform
stream (see :mod:`repro.workload.traffic`).

A :class:`SuiteTemplate` is a join shape (possibly containing
*self-joins*: the same table under two aliases) plus a set of
:class:`PredicateSlot`'s, each with a fixed predicate *family*:

* ``eq``      — ``column = literal`` (numeric or string),
* ``range``   — one-sided ``< | > | <= | >=`` (covers date-like
  columns such as ``production_year`` / ``o_orderdate``),
* ``between`` — ``column >= lo AND column <= hi``,
* ``in``      — ``column IN (a, b, ...)`` (numeric or string).

Instantiating a template draws only literals; the SQL shape — tables,
joins, columns, operators — is frozen, so all instances of one template
share a :func:`repro.core.featurization.template_key`.

Everything is seeded through :mod:`repro.rng` (numpy generators spawned
per template); the same seed yields a byte-identical suite, which
:meth:`TemplateSuite.digest` turns into a checkable fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import QueryError
from ..rng import SeedLike, make_rng, spawn
from ..db.database import Database
from ..db.executor import execute_counts
from ..db.types import DType
from .generator import (
    MAX_PREDICATES_PER_TABLE,
    WorkloadSpec,
    build_literal_pools,
    build_neighbor_map,
    decode_pool_value,
)
from .query import JoinEdge, Predicate, Query, TableRef

#: Predicate families a slot can take, by column kind.
NUMERIC_FAMILIES = ("eq", "range", "between", "in")
STRING_FAMILIES = ("eq", "in")

#: One-sided operators the ``range`` family draws from.
RANGE_OPS = ("<", ">", "<=", ">=")

#: Serialization format version for :meth:`TemplateSuite.to_json`.
SUITE_VERSION = 1


@dataclass(frozen=True)
class PredicateSlot:
    """One parameterized predicate of a template (literal-free).

    ``ops`` is the exact operator sequence the slot expands to — one
    operator for ``eq``/``range``/``in``, ``(">=", "<=")`` for
    ``between`` — so the template pins the full SQL shape and instances
    differ only in literals.
    """

    alias: str
    table: str
    column: str
    family: str
    ops: tuple[str, ...]
    in_arity: int = 0

    def __post_init__(self):
        if self.family not in NUMERIC_FAMILIES:
            raise QueryError(f"unknown predicate family {self.family!r}")
        if self.family == "in" and self.in_arity < 1:
            raise QueryError(
                f"'in' slot needs a positive arity, got {self.in_arity}"
            )


@dataclass(frozen=True)
class SuiteTemplate:
    """A named query shape: tables + joins + predicate slots."""

    name: str
    tables: tuple[TableRef, ...]
    joins: tuple[JoinEdge, ...]
    slots: tuple[PredicateSlot, ...]

    def structure_key(self) -> tuple:
        """Literal-free identity used to deduplicate drawn templates."""
        return (
            tuple(sorted(self.tables)),
            tuple(sorted(self.joins)),
            tuple(sorted((s.alias, s.column, s.ops) for s in self.slots)),
        )

    @property
    def has_self_join(self) -> bool:
        names = [t.table for t in self.tables]
        return len(names) != len(set(names))

    @property
    def n_joins(self) -> int:
        return len(self.joins)


@dataclass(frozen=True)
class TemplateQueries:
    """One template's instances, optionally labeled with cardinalities."""

    template: SuiteTemplate
    queries: tuple[Query, ...]
    cardinalities: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.cardinalities is not None and len(self.cardinalities) != len(
            self.queries
        ):
            raise QueryError(
                f"template {self.template.name!r}: {len(self.queries)} queries "
                f"but {len(self.cardinalities)} cardinalities"
            )

    @property
    def name(self) -> str:
        return self.template.name

    def __len__(self) -> int:
        return len(self.queries)


@dataclass(frozen=True)
class TemplateSuite:
    """A set of templates with their generated per-template query sets."""

    templates: tuple[TemplateQueries, ...]

    def __post_init__(self):
        names = [t.name for t in self.templates]
        if len(names) != len(set(names)):
            raise QueryError(f"duplicate template names in {names}")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.templates)

    def __iter__(self) -> Iterator[TemplateQueries]:
        return iter(self.templates)

    @property
    def names(self) -> list[str]:
        return [t.name for t in self.templates]

    @property
    def n_queries(self) -> int:
        return sum(len(t) for t in self.templates)

    @property
    def labeled(self) -> bool:
        return bool(self.templates) and all(
            t.cardinalities is not None for t in self.templates
        )

    def template(self, name: str) -> TemplateQueries:
        for t in self.templates:
            if t.name == name:
                return t
        raise QueryError(f"unknown template {name!r}")

    def queries(self) -> list[Query]:
        """All queries, flattened in template order."""
        return [q for t in self.templates for q in t.queries]

    def labeled_pairs(self) -> tuple[list[Query], np.ndarray]:
        """(queries, cardinalities) flattened in template order."""
        if not self.labeled:
            raise QueryError("suite is not labeled; call label() first")
        queries = self.queries()
        cards = np.asarray(
            [c for t in self.templates for c in t.cardinalities], dtype=np.float64
        )
        return queries, cards

    def subset(self, names: list[str] | tuple[str, ...]) -> "TemplateSuite":
        """The sub-suite holding exactly ``names`` (original order kept)."""
        wanted = set(names)
        unknown = wanted - set(self.names)
        if unknown:
            raise QueryError(f"unknown templates {sorted(unknown)}")
        return TemplateSuite(
            templates=tuple(t for t in self.templates if t.name in wanted)
        )

    # ------------------------------------------------------------------
    # labeling
    # ------------------------------------------------------------------
    def label(
        self,
        db: Database,
        drop_zero: bool = True,
        min_queries_per_template: int = 1,
    ) -> "TemplateSuite":
        """Execute every query against ``db`` and attach cardinalities.

        All templates' queries are labelled in one
        :func:`~repro.db.executor.execute_counts` call, so instances of
        one template share its predicate masks and join messages.
        Zero-cardinality instances are dropped by default (their
        log-label is undefined, matching the sketch builder); templates
        left with fewer than ``min_queries_per_template`` labeled
        instances are dropped entirely.
        """
        counts = iter(execute_counts(db, self.queries()))
        labeled: list[TemplateQueries] = []
        for entry in self.templates:
            kept: list[Query] = []
            cards: list[int] = []
            for query, cardinality in zip(entry.queries, counts):
                if cardinality == 0 and drop_zero:
                    continue
                kept.append(query)
                cards.append(int(cardinality))
            if len(kept) < min_queries_per_template:
                continue
            labeled.append(
                TemplateQueries(
                    template=entry.template,
                    queries=tuple(kept),
                    cardinalities=tuple(cards),
                )
            )
        return TemplateSuite(templates=tuple(labeled))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """A JSON-safe dict; queries travel as SQL text (exact round trip)."""
        return {
            "version": SUITE_VERSION,
            "templates": [
                {
                    "name": t.template.name,
                    "tables": [[ref.table, ref.alias] for ref in t.template.tables],
                    "joins": [
                        [j.left_alias, j.left_column, j.right_alias, j.right_column]
                        for j in t.template.joins
                    ],
                    "slots": [
                        {
                            "alias": s.alias,
                            "table": s.table,
                            "column": s.column,
                            "family": s.family,
                            "ops": list(s.ops),
                            "in_arity": s.in_arity,
                        }
                        for s in t.template.slots
                    ],
                    "queries": [q.to_sql() for q in t.queries],
                    "cardinalities": (
                        list(t.cardinalities) if t.cardinalities is not None else None
                    ),
                }
                for t in self.templates
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TemplateSuite":
        from ..db.sql import parse_sql

        try:
            version = payload["version"]
            if version != SUITE_VERSION:
                raise QueryError(f"unsupported suite version {version!r}")
            templates = []
            for entry in payload["templates"]:
                template = SuiteTemplate(
                    name=entry["name"],
                    tables=tuple(TableRef(t, a) for t, a in entry["tables"]),
                    joins=tuple(JoinEdge(*j) for j in entry["joins"]),
                    slots=tuple(
                        PredicateSlot(
                            alias=s["alias"],
                            table=s["table"],
                            column=s["column"],
                            family=s["family"],
                            ops=tuple(s["ops"]),
                            in_arity=int(s["in_arity"]),
                        )
                        for s in entry["slots"]
                    ),
                )
                cards = entry.get("cardinalities")
                templates.append(
                    TemplateQueries(
                        template=template,
                        queries=tuple(parse_sql(sql) for sql in entry["queries"]),
                        cardinalities=(
                            tuple(int(c) for c in cards) if cards is not None else None
                        ),
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise QueryError(f"malformed suite payload: {exc}") from exc
        return cls(templates=tuple(templates))

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form.

        Two suites have equal digests iff their serialized forms are
        byte-identical — the cross-process determinism fingerprint.
        """
        canonical = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------


#: IN-list size range (arity is drawn per slot, then fixed).
IN_MIN_ARITY = 2
IN_MAX_ARITY = 4

#: Drawing budget per requested item before giving up on dedup.
MAX_ATTEMPTS_FACTOR = 30


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs of the template-suite generator."""

    n_templates: int = 8
    queries_per_template: int = 50
    #: Deeper than the uniform generator's default: chains like
    #: ``title ⋈ movie_keyword ⋈ keyword`` need room to grow.
    max_joins: int = 4
    #: Probability that a join step reuses an already-included table
    #: under a fresh alias (a self-join), when the FK graph allows it.
    self_join_fraction: float = 0.25

    def __post_init__(self):
        if self.n_templates < 1:
            raise QueryError(f"n_templates must be positive, got {self.n_templates}")
        if self.queries_per_template < 1:
            raise QueryError(
                f"queries_per_template must be positive, got "
                f"{self.queries_per_template}"
            )
        if self.max_joins < 0:
            raise QueryError(f"max_joins must be >= 0, got {self.max_joins}")
        if not 0.0 <= self.self_join_fraction <= 1.0:
            raise QueryError(
                f"self_join_fraction must be in [0, 1], got "
                f"{self.self_join_fraction}"
            )


class TemplateSuiteGenerator:
    """Draws a :class:`TemplateSuite` from a database + workload spec.

    Two-level drawing, all through :mod:`repro.rng`: the parent
    generator draws template *shapes* (dedup'd by structure), then each
    template gets a spawned child generator for its literal draws — so
    templates are independent and the whole suite is reproducible from
    one seed.
    """

    def __init__(
        self,
        db: Database,
        spec: WorkloadSpec,
        config: SuiteConfig | None = None,
        seed: SeedLike = None,
    ):
        self.db = db
        self.spec = spec
        self.config = config or SuiteConfig()
        self.rng = make_rng(seed)
        for table in spec.tables:
            if table not in db.tables:
                raise QueryError(f"workload spec references unknown table {table!r}")
        self._neighbors = build_neighbor_map(db, spec)
        self._pools = build_literal_pools(db, spec)

    # ------------------------------------------------------------------
    # template shapes
    # ------------------------------------------------------------------
    def _fresh_alias(self, base: str, taken: set[str]) -> str:
        if base not in taken:
            return base
        k = 2
        while f"{base}{k}" in taken:
            k += 1
        return f"{base}{k}"

    def _draw_structure(
        self, rng: np.random.Generator
    ) -> tuple[list[tuple[str, str]], list[JoinEdge]]:
        """[(alias, table)], joins — grown along FKs, self-joins allowed."""
        cfg = self.config
        n_joins = int(rng.integers(0, cfg.max_joins + 1))
        start = str(rng.choice(list(self.spec.tables)))
        aliases: list[tuple[str, str]] = [(self.spec.alias_of(start), start)]
        joins: list[JoinEdge] = []
        while len(joins) < n_joins:
            new_edges: list[tuple[str, str, str, str]] = []
            self_edges: list[tuple[str, str, str, str]] = []
            present_tables = {table for _, table in aliases}
            for alias, table in aliases:
                for neighbor, own_col, other_col in self._neighbors[table]:
                    edge = (alias, own_col, neighbor, other_col)
                    if neighbor in present_tables:
                        self_edges.append(edge)
                    else:
                        new_edges.append(edge)
            frontier = new_edges
            if self_edges and (
                not new_edges or rng.random() < cfg.self_join_fraction
            ):
                frontier = self_edges
            if not frontier:
                break  # the component is exhausted
            src_alias, own_col, neighbor, other_col = frontier[
                int(rng.integers(0, len(frontier)))
            ]
            taken = {alias for alias, _ in aliases}
            neighbor_alias = self._fresh_alias(self.spec.alias_of(neighbor), taken)
            aliases.append((neighbor_alias, neighbor))
            joins.append(JoinEdge(src_alias, own_col, neighbor_alias, other_col))
        return aliases, joins

    def _draw_slot(
        self, rng: np.random.Generator, alias: str, table: str, column: str
    ) -> PredicateSlot:
        dtype = self.db.table(table).column(column).dtype
        families = STRING_FAMILIES if dtype is DType.STRING else NUMERIC_FAMILIES
        family = str(rng.choice(list(families)))
        if family == "eq":
            ops: tuple[str, ...] = ("=",)
            arity = 0
        elif family == "range":
            ops = (str(rng.choice(list(RANGE_OPS))),)
            arity = 0
        elif family == "between":
            ops = (">=", "<=")
            arity = 0
        else:  # in
            ops = ("in",)
            distinct = self._pools[(table, column)][1]
            high = min(IN_MAX_ARITY, len(distinct))
            low = min(IN_MIN_ARITY, high)
            arity = int(rng.integers(low, high + 1))
        return PredicateSlot(
            alias=alias, table=table, column=column, family=family, ops=ops,
            in_arity=arity,
        )

    def _draw_slots(
        self, rng: np.random.Generator, aliases: list[tuple[str, str]]
    ) -> list[PredicateSlot]:
        slots: list[PredicateSlot] = []
        eligible: list[tuple[str, str]] = []
        for alias, table in aliases:
            columns = self.spec.columns_of(table)
            if not columns:
                continue
            eligible.append((alias, table))
            max_preds = min(MAX_PREDICATES_PER_TABLE, len(columns))
            n_preds = int(rng.integers(0, max_preds + 1))
            if n_preds == 0:
                continue
            chosen = rng.choice(len(columns), size=n_preds, replace=False)
            for idx in sorted(int(i) for i in chosen):
                slots.append(self._draw_slot(rng, alias, table, columns[idx]))
        if not slots and eligible:
            # A template with no predicate has nothing to parameterize.
            alias, table = eligible[int(rng.integers(0, len(eligible)))]
            columns = self.spec.columns_of(table)
            column = columns[int(rng.integers(0, len(columns)))]
            slots.append(self._draw_slot(rng, alias, table, column))
        return slots

    def _draw_template(self, rng: np.random.Generator, index: int) -> SuiteTemplate:
        aliases, joins = self._draw_structure(rng)
        slots = self._draw_slots(rng, aliases)
        marker = "s" if len({t for _, t in aliases}) != len(aliases) else ""
        name = f"q{index:02d}_{len(joins)}j{marker}_{len(slots)}p"
        return SuiteTemplate(
            name=name,
            tables=tuple(TableRef(table, alias) for alias, table in aliases),
            joins=tuple(joins),
            slots=tuple(slots),
        )

    # ------------------------------------------------------------------
    # literal instantiation
    # ------------------------------------------------------------------
    def _draw_value(self, rng: np.random.Generator, table: str, column: str):
        """One literal, frequency-weighted or uniform-over-distinct."""
        rows_pool, distinct_pool = self._pools[(table, column)]
        pool = distinct_pool if rng.random() < 0.5 else rows_pool
        raw = pool[int(rng.integers(0, len(pool)))]
        return decode_pool_value(self.db, table, column, raw)

    def _instantiate_slot(
        self, rng: np.random.Generator, slot: PredicateSlot
    ) -> list[Predicate]:
        if slot.family == "eq":
            return [
                Predicate(slot.alias, slot.column, "=",
                          self._draw_value(rng, slot.table, slot.column))
            ]
        if slot.family == "range":
            return [
                Predicate(slot.alias, slot.column, slot.ops[0],
                          self._draw_value(rng, slot.table, slot.column))
            ]
        if slot.family == "between":
            a = self._draw_value(rng, slot.table, slot.column)
            b = self._draw_value(rng, slot.table, slot.column)
            lo, hi = (a, b) if a <= b else (b, a)
            return [
                Predicate(slot.alias, slot.column, ">=", lo),
                Predicate(slot.alias, slot.column, "<=", hi),
            ]
        # in: distinct members, sampled without replacement.
        distinct = self._pools[(slot.table, slot.column)][1]
        arity = min(slot.in_arity, len(distinct))
        picks = rng.choice(len(distinct), size=arity, replace=False)
        members = tuple(
            decode_pool_value(self.db, slot.table, slot.column, distinct[int(i)])
            for i in picks
        )
        return [Predicate(slot.alias, slot.column, "in", members)]

    def _instantiate(
        self, rng: np.random.Generator, template: SuiteTemplate
    ) -> TemplateQueries:
        cfg = self.config
        seen: set[Query] = set()
        queries: list[Query] = []
        attempts = MAX_ATTEMPTS_FACTOR * cfg.queries_per_template
        for _ in range(attempts):
            if len(queries) >= cfg.queries_per_template:
                break
            predicates = [
                pred for slot in template.slots
                for pred in self._instantiate_slot(rng, slot)
            ]
            query = Query(
                tables=template.tables,
                joins=template.joins,
                predicates=tuple(predicates),
            )
            if query in seen:
                continue
            seen.add(query)
            queries.append(query)
        if not queries:
            raise QueryError(
                f"template {template.name!r} produced no instances in "
                f"{attempts} attempts"
            )
        return TemplateQueries(template=template, queries=tuple(queries))

    # ------------------------------------------------------------------
    # the suite
    # ------------------------------------------------------------------
    def generate(self) -> TemplateSuite:
        """Draw the configured number of distinct templates + instances."""
        cfg = self.config
        shapes: list[SuiteTemplate] = []
        seen_structures: set[tuple] = set()
        attempts = MAX_ATTEMPTS_FACTOR * cfg.n_templates
        for _ in range(attempts):
            if len(shapes) >= cfg.n_templates:
                break
            template = self._draw_template(self.rng, len(shapes))
            key = template.structure_key()
            if key in seen_structures:
                continue
            seen_structures.add(key)
            shapes.append(template)
        if len(shapes) < cfg.n_templates:
            raise QueryError(
                f"could only draw {len(shapes)} distinct templates "
                f"(requested {cfg.n_templates}) in {attempts} attempts; "
                "widen the spec (more tables/columns) or lower n_templates"
            )
        template_rngs = spawn(self.rng, len(shapes))
        return TemplateSuite(
            templates=tuple(
                self._instantiate(rng, template)
                for rng, template in zip(template_rngs, shapes)
            )
        )


def generate_template_suite(
    db: Database,
    spec: WorkloadSpec,
    config: SuiteConfig | None = None,
    seed: SeedLike = None,
) -> TemplateSuite:
    """One-call convenience wrapper around :class:`TemplateSuiteGenerator`."""
    return TemplateSuiteGenerator(db, spec, config=config, seed=seed).generate()
