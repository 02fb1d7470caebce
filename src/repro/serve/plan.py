"""Plan advisory: join-order optimization as a service.

The paper's stated use of Deep Sketches is that the estimates "can
directly be leveraged by existing, sophisticated join enumeration
algorithms and cost models" (Section 1).  :mod:`repro.optimizer` is
that consumer in-process; this module closes the serving loop — one
SQL query in, one chosen join order out, with every subplan
cardinality served by a :class:`~repro.serve.service.SketchService`:

1. **Enumerate** every connected subplan of the query's join graph
   (:func:`~repro.optimizer.enumerate.connected_subsets` — the exact
   subsets the DP will probe, plus the singletons the degraded
   fallback needs).
2. **Batch** all subplan estimates through one ``serve`` call,
   so the whole plan costs exactly ONE ``estimate_batch`` round trip
   (cross-sketch dedup, the feature cache, and server-side
   micro-batching do the rest).
3. **Inject** the answers into
   :func:`~repro.optimizer.enumerate.dp_optimal_plan` under the C_out
   model, clamping each estimate at 1.0 exactly like
   :class:`~repro.optimizer.cost.CardinalityCache` — so the served
   plan is *identical* to the in-process
   :class:`~repro.optimizer.PlanOptimizer` plan.
4. **Answer** with a structured :class:`PlanResponse`: the chosen join
   order, the per-subplan estimates (with response codes), the
   estimated C_out, and a timing split (estimation vs enumeration).

Failure semantics mirror the estimate path — a response is a value,
never an exception:

* malformed SQL -> ``code="parse"``;
* a join graph the enumerator cannot plan (disconnected, or wider
  than :data:`~repro.optimizer.enumerate.MAX_DP_RELATIONS`) ->
  ``code="plan"`` (:data:`CODE_PLAN`, the one addition plan envelopes
  make to the engine's closed code set — see
  :data:`PLAN_RESPONSE_CODES`);
* no sketch covers the join graph -> ``code="route"``;
* **per-subplan failures degrade, they do not fail the plan**: a
  subplan that sheds, misses vocabulary, or expires falls back to the
  independence-assumption estimate (the product of its member tables'
  single-table estimates — the cross-product bound) with
  ``degraded=True`` and the original code preserved on its
  :class:`SubplanEstimate`.  Degraded estimates are real numbers, so
  the DP still returns a complete plan; callers that must not act on
  degraded advice check ``response.degraded``.

Transport faults (connection loss to a remote service) raise out of
``serve`` exactly as they do for any batch — the gateway and SDK
layers map those onto their typed taxonomy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import QueryError, ReproError
from ..db.query import Query
from ..optimizer.enumerate import connected_subsets, dp_optimal_plan
from ..optimizer.plans import PlanNode, sub_query
from .engine import CODE_PARSE, CODE_ROUTE, RESPONSE_CODES

#: ``PlanResponse.code`` for a query the join enumerator cannot plan:
#: a disconnected join graph (cross products) or more relations than
#: the DP width guard allows.  Distinct from ``"parse"`` (the SQL is
#: valid) and ``"route"`` (a covering sketch may well exist).
CODE_PLAN = "plan"

#: Every code a :class:`PlanResponse` can carry: the engine's closed
#: set plus :data:`CODE_PLAN`.  Appending is additive for the wire
#: encodings; reordering is a wire break.
PLAN_RESPONSE_CODES = RESPONSE_CODES + (CODE_PLAN,)


@dataclass
class SubplanEstimate:
    """One connected subplan's served cardinality.

    ``aliases`` is the sorted alias tuple of the subset; ``estimate``
    is the injected cardinality (already clamped at 1.0, the
    :class:`~repro.optimizer.cost.CardinalityCache` discipline).  A
    ``degraded`` entry fell back to the independence-assumption
    estimate; ``code``/``error`` then preserve the underlying
    failure (one of :data:`~repro.serve.engine.RESPONSE_CODES`).
    """

    aliases: tuple[str, ...]
    estimate: float
    cached: bool = False
    degraded: bool = False
    code: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return not self.degraded


@dataclass
class PlanResponse:
    """Outcome of one plan advisory request.

    Exactly one of ``plan`` / ``error`` is set.  ``subplans`` lists
    every connected subset in enumeration order (singletons first, the
    full query last); ``estimated_cost`` is the chosen plan's C_out
    under the served estimates.  ``estimate_ms`` is the one batched
    estimation round trip; ``enumerate_ms`` is subset enumeration plus
    the DP — the split quantifies what plan advice costs beyond plain
    estimation.
    """

    request: Query | str
    query: Query | None
    sketch: str | None
    plan: PlanNode | None
    estimated_cost: float | None
    subplans: tuple[SubplanEstimate, ...] = field(default_factory=tuple)
    error: str | None = None
    code: str | None = None
    estimate_ms: float | None = None
    enumerate_ms: float | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def degraded(self) -> bool:
        """Did any subplan fall back to an independence estimate?"""
        return any(s.degraded for s in self.subplans)

    @property
    def join_order(self) -> str | None:
        """The chosen plan as its parenthesized join string."""
        return None if self.plan is None else str(self.plan)


class _InjectedCards:
    """A :class:`~repro.optimizer.cost.CardinalityCache` stand-in over
    pre-served estimates — the cardinality-injection side of the DP."""

    __slots__ = ("_cards",)

    def __init__(self, cards: dict[frozenset[str], float]):
        self._cards = cards

    def cardinality(self, aliases: frozenset[str]) -> float:
        return self._cards[aliases]

    @property
    def probes(self) -> int:
        return len(self._cards)


def plan_failure(
    request: Query | str,
    error: str,
    code: str,
    *,
    query: Query | None = None,
    sketch: str | None = None,
) -> PlanResponse:
    """A structured plan failure (every field a wire envelope needs)."""
    return PlanResponse(
        request=request,
        query=query,
        sketch=sketch,
        plan=None,
        estimated_cost=None,
        error=error,
        code=code,
    )


def plan_query(
    service,
    request: Query | str,
    sketch: str | None = None,
) -> PlanResponse:
    """Advise a join order for ``request``, estimates served by ``service``.

    ``service`` is any :class:`~repro.serve.service.SketchService`;
    ``sketch`` pins every subplan estimate to a named sketch (default:
    each subplan routes to its narrowest cover).

    All subplan estimates travel as **one** ``serve`` batch —
    one wire round trip against a remote service — before the DP runs
    on the injected answers.  See the module docs for the failure and
    degradation semantics.
    """
    # -- parse ---------------------------------------------------------
    if isinstance(request, str):
        try:
            from ..db.sql import parse_sql

            query = parse_sql(request)
        except ReproError as exc:
            return plan_failure(request, str(exc), CODE_PARSE)
    else:
        query = request

    # -- enumerate the connected subplans (pre-round-trip guards) ------
    t0 = time.perf_counter()
    try:
        subsets = connected_subsets(query)
    except QueryError as exc:
        return plan_failure(request, str(exc), CODE_PLAN, query=query)
    enumerate_s = time.perf_counter() - t0

    # -- one batched estimation round trip -----------------------------
    t0 = time.perf_counter()
    responses = service.serve(
        [sub_query(query, subset) for subset in subsets], sketch
    )
    estimate_s = time.perf_counter() - t0

    # Any route failure fails the whole plan: a sketch that covers the
    # full join graph covers every subplan, so an unroutable subset
    # means no backend can advise this plan at all.
    for response in responses:
        if response.code == CODE_ROUTE:
            return plan_failure(
                request, response.error, CODE_ROUTE, query=query, sketch=sketch
            )

    # -- inject, degrading failed subplans -----------------------------
    cards: dict[frozenset[str], float] = {}
    subplans: list[SubplanEstimate] = []
    for subset, response in zip(subsets, responses):
        aliases = tuple(sorted(subset))
        if response.ok:
            # The CardinalityCache clamp, verbatim: identical inputs to
            # the DP mean the served plan equals the in-process one.
            estimate = max(float(response.estimate), 1.0)
            subplans.append(
                SubplanEstimate(
                    aliases=aliases, estimate=estimate, cached=response.cached
                )
            )
        else:
            # Independence-assumption fallback: the cross-product bound
            # over the member tables' single-table estimates (1.0 for a
            # member whose own estimate also failed — subsets enumerate
            # smallest-first, so singletons are already in `cards`).
            fallback = 1.0
            for alias in subset:
                fallback *= cards.get(frozenset((alias,)), 1.0)
            estimate = max(fallback, 1.0)
            subplans.append(
                SubplanEstimate(
                    aliases=aliases,
                    estimate=estimate,
                    degraded=True,
                    code=response.code,
                    error=response.error,
                )
            )
        cards[subset] = estimate

    # -- the DP over injected cardinalities ----------------------------
    t0 = time.perf_counter()
    try:
        plan, cost = dp_optimal_plan(query, _InjectedCards(cards))
    except QueryError as exc:  # pragma: no cover - pre-checked above
        return plan_failure(request, str(exc), CODE_PLAN, query=query)
    enumerate_s += time.perf_counter() - t0

    full = responses[-1]  # subsets enumerate the full query last
    return PlanResponse(
        request=request,
        query=query,
        sketch=full.sketch if full.sketch is not None else sketch,
        plan=plan,
        estimated_cost=cost,
        subplans=tuple(subplans),
        estimate_ms=estimate_s * 1000.0,
        enumerate_ms=enumerate_s * 1000.0,
    )


__all__ = [
    "CODE_PLAN",
    "PLAN_RESPONSE_CODES",
    "PlanResponse",
    "SubplanEstimate",
    "plan_failure",
    "plan_query",
]
