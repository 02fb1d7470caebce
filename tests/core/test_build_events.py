"""A build's progress events, as every observer of them sees them.

The demo's monitor (:class:`~repro.core.monitor.Monitor`), the
benchmark's ``BuildWatch`` and the traced ``core.builder.*`` spans it
derives (``benchmarks/e2e/child.py: build_spans``) all read the
builder's ``(stage, current, total)`` events.  The sequence below is
pinned from the per-query builder that the columnar batch replaced, on
a small config whose 1100 queries take three label chunks.
"""

from pathlib import Path

from repro.core import SketchConfig, SketchBuilder
from repro.core.monitor import Monitor
from repro.workload import spec_for_imdb

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"

CONFIG = SketchConfig(
    n_training_queries=1100, epochs=2, sample_size=50, hidden_units=8, seed=3
)
PINNED = [
    ("define", 0, 1, "materializing samples"),
    ("define", 1, 1, ""),
    ("generate", 1100, 1100, "collected queries"),
    ("execute", 500, 1100, "executing training queries"),
    ("execute", 1000, 1100, "executing training queries"),
    ("execute", 1100, 1100, "executing training queries"),
    ("train", 1, 2, "epoch 1: val mean q-error 31.98"),
    ("train", 2, 2, "epoch 2: val mean q-error 31.97"),
]


class _Spans:
    """The slice of the benchmark tracer ``build_spans`` calls."""

    def __init__(self):
        self.names = []

    def add(self, name, start, end, parent=None, op=None):
        assert start <= end, name
        self.names.append(name)
        return len(self.names)


def test_every_observer_sees_the_pinned_events(imdb_small, monkeypatch):
    monkeypatch.syspath_prepend(str(E2E))
    from common import CHILD_ENV
    from drivers import BuildWatch, Outcome

    for name, value in CHILD_ENV.items():  # child.py refuses other envs
        monkeypatch.setenv(name, value)
    import child

    events, monitor, watch = [], Monitor(), BuildWatch()

    def progress(event):
        events.append(event)
        monitor.on_progress(event)
        watch(event)

    pending = SketchBuilder(imdb_small, spec_for_imdb(), CONFIG, progress=progress).start(
        "events"
    )
    outcome = Outcome(1)
    outcome.t0 = watch.events[0][2]
    while not pending.finished:
        pending.step()
    outcome.t1 = watch.events[-1][2]

    assert [(e.stage, e.current, e.total, e.message) for e in events] == PINNED
    assert [(e.stage, e.current, e.total, e.message) for e in monitor.events] == PINNED
    assert [(stage, current) for stage, current, _ in watch.events] == [
        (stage, current) for stage, current, _, _ in PINNED
    ]
    assert monitor.stages_seen() == ["define", "generate", "execute", "train"]
    spans = _Spans()
    child.build_spans(spans, 0, outcome, watch)
    assert spans.names == [
        "round", "core.builder.train", "core.training.epoch", "core.training.epoch",
        "core.builder.define", "core.builder.generate", "core.builder.execute",
    ]
