"""Join-plan trees.

The paper positions Deep Sketch estimates as direct input to "existing,
sophisticated join enumeration algorithms and cost models" (Section 1).
This package provides exactly that consumer: binary join trees, a C_out
cost model, and a dynamic-programming enumerator, so plan quality under
different estimators can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import QueryError
from ..db.query import Query


class PlanNode:
    """Base class for join-tree nodes."""

    @property
    def aliases(self) -> frozenset[str]:
        raise NotImplementedError

    def join_nodes(self) -> Iterator["JoinNode"]:
        """All internal (join) nodes, bottom-up."""
        raise NotImplementedError

    def leaf_count(self) -> int:
        return len(self.aliases)


@dataclass(frozen=True)
class LeafNode(PlanNode):
    """A base-table scan (with its pushed-down predicates)."""

    alias: str

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset((self.alias,))

    def join_nodes(self) -> Iterator["JoinNode"]:
        return iter(())

    def __str__(self) -> str:
        return self.alias


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """A binary join of two sub-plans."""

    left: PlanNode
    right: PlanNode

    def __post_init__(self):
        overlap = self.left.aliases & self.right.aliases
        if overlap:
            raise QueryError(f"join children share aliases {sorted(overlap)}")

    @property
    def aliases(self) -> frozenset[str]:
        return self.left.aliases | self.right.aliases

    def join_nodes(self) -> Iterator["JoinNode"]:
        yield from self.left.join_nodes()
        yield from self.right.join_nodes()
        yield self

    def __str__(self) -> str:
        return f"({self.left} ⨝ {self.right})"


def sub_query(query: Query, aliases: frozenset[str]) -> Query:
    """The query restricted to ``aliases``.

    Keeps the tables in the subset, every join whose two sides are both
    inside, and every predicate on an inside alias — the intermediate
    result a plan node materializes.
    """
    missing = aliases - set(query.aliases)
    if missing:
        raise QueryError(f"unknown aliases {sorted(missing)} in plan")
    return Query(
        tables=tuple(t for t in query.tables if t.alias in aliases),
        joins=tuple(j for j in query.joins if j.aliases <= aliases),
        predicates=tuple(p for p in query.predicates if p.alias in aliases),
    )


def validate_plan(plan: PlanNode, query: Query) -> None:
    """Check that ``plan`` covers exactly the query's aliases."""
    if plan.aliases != frozenset(query.aliases):
        raise QueryError(
            f"plan covers {sorted(plan.aliases)} but the query has "
            f"{sorted(query.aliases)}"
        )
