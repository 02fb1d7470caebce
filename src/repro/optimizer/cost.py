"""The C_out cost model and the sub-plan cardinality table it reads.

C_out (Cluet & Moerkotte) charges a plan the sum of the cardinalities of
all intermediate join results it materializes.  It is the standard
yardstick in the cardinality-estimation literature (used throughout the
Join Order Benchmark papers the demo builds on [11, 12]) because it
isolates the effect of *cardinality estimates* on plan choice from
physical operator details.

The same plan can be costed under different estimators; costing under
the truth oracle gives the plan's *true* cost, which is how plan quality
is scored.
"""

from __future__ import annotations

from .plans import PlanNode


class SubplanCards(dict):
    """Connected alias subset -> its sub-plan's cardinality, filled from
    one batch before enumeration; read through ``cardinality``."""

    cardinality = dict.__getitem__

    def put(self, aliases: frozenset[str], value: float) -> float:
        """Store ``value`` floored at 1.0 (a sub-one cardinality would
        make C_out prefer "free" intermediates); return what was stored."""
        self[aliases] = value = max(float(value), 1.0)
        return value


def cout_cost(plan: PlanNode, cards: SubplanCards) -> float:
    """C_out of ``plan`` under the cardinalities ``cards``.

    Base-table scans are excluded (their size does not depend on the
    join order); every join node contributes its output cardinality,
    including the root.
    """
    return sum(cards.cardinality(node.aliases) for node in plan.join_nodes())
