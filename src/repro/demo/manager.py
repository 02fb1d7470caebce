"""The demo backend: create, train, monitor, and query Deep Sketches.

Mirrors the workflow behind the paper's web interface (Section 3):

* ``SHOW SKETCHES`` — :meth:`SketchManager.list_sketches`;
* creating a sketch with table subset / samples / queries / epochs —
  :meth:`SketchManager.create_sketch` (synchronous) and
  :meth:`SketchManager.start_build` / :meth:`SketchManager.step_build`
  (incremental, so existing sketches stay queryable while a new model
  trains — the demo's third latency mitigation);
* pre-built high-quality models — :meth:`SketchManager.register_sketch`;
* querying a sketch — :meth:`SketchManager.query`.

The incremental build steps the builder's own build
(:meth:`repro.core.builder.SketchBuilder.start`, then one
:meth:`~repro.core.builder.PendingBuild.step` — one epoch — per
:meth:`step_build` call), so it trains exactly the sketch
:meth:`create_sketch` would; queries against *other* sketches can be
interleaved freely.  Both paths record their progress in a
:class:`Monitor`.
"""

from __future__ import annotations

import numpy as np

from ..errors import SketchError
from ..db.database import Database
from ..workload.generator import WorkloadSpec
from ..db.query import Query
from ..core.builder import BuildReport, PendingBuild, SketchBuilder, SketchConfig
from ..core.sketch import DeepSketch
from .monitor import Monitor


class SketchManager:
    """Holds named sketches over one database and builds new ones."""

    def __init__(self, db: Database | None = None):
        # ``db`` may be None for a serving-only manager (pre-built
        # sketches registered via register_sketch); builds require it.
        self.db = db
        self._sketches: dict[str, DeepSketch] = {}
        self._monitors: dict[str, Monitor] = {}
        self._pending: dict[str, PendingBuild] = {}

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def list_sketches(self) -> list[str]:
        return sorted(self._sketches)

    def register_sketch(self, sketch: DeepSketch) -> None:
        """Add a pre-built sketch (the demo's instantly queryable models)."""
        if sketch.name in self._sketches:
            raise SketchError(f"sketch {sketch.name!r} already exists")
        self._sketches[sketch.name] = sketch

    def get_sketch(self, name: str) -> DeepSketch:
        try:
            return self._sketches[name]
        except KeyError:
            known = ", ".join(self.list_sketches()) or "(none)"
            raise SketchError(f"no sketch named {name!r}; have: {known}") from None

    def replace_sketch(self, name: str, sketch: DeepSketch) -> DeepSketch:
        """Swap the sketch registered under ``name``; return the old one.

        The replacement must cover the same name (routing tables may
        differ only if the new sketch was trained on the same subset —
        enforced by the name check plus the table check, because a
        different table set would silently change routing under live
        traffic).  The *old* sketch is returned **without** clearing its
        cache: in-flight serving rounds may still hold a reference to
        it, and bumping its snapshot token while they run would corrupt
        per-response version accounting.  The caller retires it (via
        ``old.clear_cache()``) once no round can still be using it —
        see :meth:`repro.serve.engine.EstimationEngine.swap_sketch`.
        """
        if name not in self._sketches:
            known = ", ".join(self.list_sketches()) or "(none)"
            raise SketchError(f"no sketch named {name!r} to replace; have: {known}")
        if sketch.name != name:
            raise SketchError(
                f"replacement sketch is named {sketch.name!r}, not {name!r}"
            )
        old = self._sketches[name]
        if set(sketch.tables) != set(old.tables):
            raise SketchError(
                f"replacement for {name!r} covers tables {sorted(sketch.tables)} "
                f"but the live sketch covers {sorted(old.tables)}; a swap must "
                "not change routing"
            )
        self._sketches[name] = sketch
        return old

    def drop_sketch(self, name: str) -> None:
        # Invalidate cached estimates: anything still holding a reference
        # to the dropped sketch must not keep serving stale results, and
        # a rebuild under the same name starts from a cold cache.
        self.get_sketch(name).clear_cache()
        del self._sketches[name]
        self._monitors.pop(name, None)

    def monitor_for(self, name: str) -> Monitor:
        try:
            return self._monitors[name]
        except KeyError:
            raise SketchError(f"no build was monitored for {name!r}") from None

    # ------------------------------------------------------------------
    # building: synchronous, or incremental (train while querying)
    # ------------------------------------------------------------------
    def create_sketch(
        self,
        name: str,
        spec: WorkloadSpec,
        config: SketchConfig | None = None,
        seed: int | None = None,
    ) -> tuple[DeepSketch, BuildReport]:
        """Run the full Figure 1a pipeline and register the result."""
        sketch, report = self._builder(name, spec, config).build(name, seed=seed)
        self._sketches[name] = sketch
        return sketch, report

    def start_build(
        self,
        name: str,
        spec: WorkloadSpec,
        config: SketchConfig | None = None,
        seed: int | None = None,
    ) -> PendingBuild:
        """Stages 1-3 plus featurization; each step_build trains one epoch."""
        pending = self._builder(name, spec, config).start(name, seed=seed)
        self._pending[name] = pending
        return pending

    def step_build(self, name: str) -> PendingBuild:
        """Advance a pending build by one epoch; register it when done."""
        try:
            pending = self._pending[name]
        except KeyError:
            raise SketchError(f"no pending build named {name!r}") from None
        pending.step()
        if pending.finished:
            pending.sketch.metadata["incremental"] = True
            del self._pending[name]
            self._sketches[name] = pending.sketch
        return pending

    def _builder(
        self, name: str, spec: WorkloadSpec, config: SketchConfig | None
    ) -> SketchBuilder:
        """A builder for a new sketch ``name`` that reports to its monitor."""
        if name in self._sketches or name in self._pending:
            raise SketchError(f"sketch {name!r} already exists")
        monitor = self._monitors[name] = Monitor()
        return SketchBuilder(self.db, spec, config=config, progress=monitor.on_progress)

    def pending_builds(self) -> list[str]:
        return sorted(self._pending)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(self, name: str, query: Query | str) -> float:
        """Estimate a query against the named sketch."""
        return self.get_sketch(name).estimate(query)

    def query_many(self, name: str, queries: list[Query | str]) -> np.ndarray:
        """Batched estimation against the named sketch (one forward pass
        for all uncached queries; see :meth:`DeepSketch.estimate_many`)."""
        return self.get_sketch(name).estimate_many(queries)

    def route_name(self, query: Query | str) -> str:
        """Name of the cheapest registered sketch covering the query.

        "Cheapest" means the fewest tables: a narrower sketch was trained
        on a denser sampling of the query's sub-space.
        """
        if isinstance(query, str):
            from ..db.sql import parse_sql

            query = parse_sql(query)
        needed = {t.table for t in query.tables}
        candidates = [
            (len(sketch.tables), name)
            for name, sketch in self._sketches.items()
            if needed <= set(sketch.tables)
        ]
        if not candidates:
            raise SketchError(
                f"no registered sketch covers tables {sorted(needed)}"
            )
        _, name = min(candidates)
        return name

    def route(self, query: Query | str) -> tuple[str, float]:
        """Estimate with the cheapest covering sketch: ``(name, estimate)``."""
        name = self.route_name(query)
        return name, self.query(name, query)

    def route_many(self, queries: list[Query | str]) -> list[tuple[str, float]]:
        """Route and estimate a whole batch.

        Queries are grouped by their routed sketch and each group is
        answered with one batched :meth:`DeepSketch.estimate_many` call;
        results come back in input order as ``(sketch name, estimate)``.
        """
        parsed: list[Query] = []
        for query in queries:
            if isinstance(query, str):
                from ..db.sql import parse_sql

                query = parse_sql(query)
            parsed.append(query)
        names = [self.route_name(q) for q in parsed]
        groups: dict[str, list[int]] = {}
        for i, name in enumerate(names):
            groups.setdefault(name, []).append(i)
        estimates = np.empty(len(parsed), dtype=np.float64)
        for name, indices in groups.items():
            values = self.get_sketch(name).estimate_many([parsed[i] for i in indices])
            estimates[indices] = values
        return [(name, float(estimates[i])) for i, name in enumerate(names)]

    # ------------------------------------------------------------------
    # advising (the conclusions' open question)
    # ------------------------------------------------------------------
    def advise(self, workload: list[Query], max_sketches: int | None = None):
        """Recommend sketch table-subsets for a past workload."""
        from .advisor import recommend_sketches

        return recommend_sketches(workload, max_sketches=max_sketches)
