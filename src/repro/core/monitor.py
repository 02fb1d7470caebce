"""Training/build monitoring (the demo's progress view + TensorBoard sub).

The demo lets users "monitor the training progress, including the
execution of training queries and the training of the deep learning
model", and uses TensorBoard for loss curves.  :class:`Monitor` records
the same information as a structured event log: stage progress events
from the builder and per-epoch statistics from the trainer, exportable
as plain arrays/CSV for plotting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ReproError

if TYPE_CHECKING:
    from .builder import ProgressEvent


@dataclass(frozen=True)
class MonitorEvent:
    """One recorded event with a wall-clock timestamp."""

    timestamp: float
    stage: str
    current: int
    total: int
    message: str


@dataclass
class Monitor:
    """Collects build progress; pass :meth:`on_progress` to the builder."""

    events: list[MonitorEvent] = field(default_factory=list)

    def on_progress(self, event: ProgressEvent) -> None:
        self.events.append(
            MonitorEvent(
                timestamp=time.time(),
                stage=event.stage,
                current=event.current,
                total=event.total,
                message=event.message,
            )
        )

    # ------------------------------------------------------------------
    # queries over the log
    # ------------------------------------------------------------------
    def stages_seen(self) -> list[str]:
        """Stage names in first-appearance order."""
        seen: list[str] = []
        for event in self.events:
            if event.stage not in seen:
                seen.append(event.stage)
        return seen

    def latest(self) -> MonitorEvent:
        if not self.events:
            raise ReproError("monitor has recorded no events")
        return self.events[-1]

    def stage_fraction(self, stage: str) -> float:
        """Completion fraction of a stage (0.0 if never seen)."""
        fraction = 0.0
        for event in self.events:
            if event.stage == stage and event.total:
                fraction = max(fraction, event.current / event.total)
        return fraction

    def epoch_messages(self) -> list[str]:
        """The per-epoch messages emitted during the train stage."""
        return [e.message for e in self.events if e.stage == "train" and e.message]

    def loss_curve_from(self, training_result) -> np.ndarray:
        """Convenience passthrough to a TrainingResult's loss curve."""
        return training_result.loss_curve()

    def to_rows(self) -> list[tuple[float, str, int, int, str]]:
        """Export the event log as plain tuples (CSV-friendly)."""
        return [
            (e.timestamp, e.stage, e.current, e.total, e.message)
            for e in self.events
        ]
