"""Template execution: the data behind the demo's Figure 2 charts.

When a user runs a query template, the demo instantiates it from the
column sample, issues every instance "against HyPer to compute its true
cardinality as well as against the Deep Sketch and the cardinality
estimators of HyPer and PostgreSQL", and plots the overlaid series.
:func:`run_template` produces exactly those series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.estimator import CardinalityEstimator
from ..core.sketch import DeepSketch
from ..errors import SketchError
from ..metrics import qerrors, summarize_qerrors, QErrorSummary
from ..workload.templates import QueryTemplate, TemplateInstance


@dataclass
class TemplateSeries:
    """One system's Y-series over the template instances."""

    system: str
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class TemplateResult:
    """The full Figure 2 payload: labels (X axis) and one series per system."""

    labels: list
    instances: list[TemplateInstance]
    series: dict[str, TemplateSeries] = field(default_factory=dict)

    def truth(self) -> np.ndarray:
        try:
            return self.series["True cardinality"].values
        except KeyError:
            raise SketchError("template result has no truth series") from None

    def qerror_summary(self, system: str) -> QErrorSummary:
        """Q-error summary of one system's series against the truth."""
        if system not in self.series:
            known = ", ".join(sorted(self.series))
            raise SketchError(f"no series for {system!r}; have: {known}")
        return summarize_qerrors(qerrors(self.series[system].values, self.truth()))

    def as_table(self) -> str:
        """Plain-text rendering of the chart data (label + one column per
        system), the textual equivalent of the demo's bar/line plot."""
        systems = sorted(self.series)
        header = "label".ljust(14) + " ".join(s.rjust(16) for s in systems)
        lines = [header]
        for i, label in enumerate(self.labels):
            cells = " ".join(
                f"{self.series[s].values[i]:16.1f}" for s in systems
            )
            lines.append(f"{str(label):<14}{cells}")
        return "\n".join(lines)


def run_template(
    sketch: DeepSketch,
    template: QueryTemplate,
    estimators: list[CardinalityEstimator],
    mode: str = "distinct",
    width: float | None = None,
    n_buckets: int | None = None,
    limit: int | None = None,
) -> TemplateResult:
    """Instantiate ``template`` from the sketch's samples and evaluate
    every instance with the sketch and each estimator.

    ``estimators`` typically contains the truth oracle plus the HyPer-
    and PostgreSQL-style baselines, matching the demo's overlays.
    """
    instances = template.instantiate(
        sketch.samples, mode=mode, width=width, n_buckets=n_buckets, limit=limit
    )
    result = TemplateResult(
        labels=[inst.label for inst in instances], instances=instances
    )
    queries = [inst.query for inst in instances]
    for estimator in (sketch, *estimators):
        result.series[estimator.name] = TemplateSeries(
            estimator.name, estimator.estimate_many(queries)
        )
    return result
