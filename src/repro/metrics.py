"""Estimation-quality metrics and serving telemetry primitives.

The paper reports estimation errors as **q-errors** (Moerkotte et al.,
PVLDB 2009): the factor between the true and the estimated cardinality,

    q(est, true) = max(est / true, true / est)   with q >= 1.

Table 1 of the paper summarizes q-error distributions with the median,
90th, 95th, and 99th percentiles, the maximum, and the mean; this module
computes exactly those rows.

The second half of the module is the serving subsystem's telemetry
vocabulary: the windowed :class:`LatencySummary` (nearest-rank
:func:`percentile` over a bounded deque of recent observations), plus
:class:`Counter` and :class:`Gauge`.  The estimation engine
(:class:`repro.serve.engine.EstimationEngine`) uses only
:class:`LatencySummary`, for its flush-latency and queue-wait windows;
every engine count lives in its lock-guarded
:class:`~repro.serve.engine.ServerStats`.  The gateway
(:class:`repro.serve.gateway.SketchGateway`) keeps its request, retry,
failover and shed counts in :class:`Counter` objects and its in-flight
request count in a :class:`Gauge`.  All three classes are internally
locked so any thread can update them without external coordination.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ReproError

#: Estimates and truths are clamped to at least this value before the
#: q-error ratio is formed, matching the reference MSCN evaluation code
#: (a COUNT(*) estimate below one row is never useful to an optimizer).
MIN_CARDINALITY = 1.0


def qerror(estimate: float, truth: float) -> float:
    """Return the q-error between one estimate and one true cardinality.

    Both inputs are clamped to :data:`MIN_CARDINALITY` first, so zero
    (or negative, for a badly behaved estimator) values do not produce
    infinite or undefined errors.
    """
    est = max(float(estimate), MIN_CARDINALITY)
    tru = max(float(truth), MIN_CARDINALITY)
    return max(est / tru, tru / est)


def qerrors(estimates: Iterable[float], truths: Iterable[float]) -> np.ndarray:
    """Vectorized :func:`qerror` over two equal-length sequences."""
    est = np.maximum(np.asarray(list(estimates), dtype=np.float64), MIN_CARDINALITY)
    tru = np.maximum(np.asarray(list(truths), dtype=np.float64), MIN_CARDINALITY)
    if est.shape != tru.shape:
        raise ReproError(
            f"estimates and truths have different lengths: {est.shape} vs {tru.shape}"
        )
    return np.maximum(est / tru, tru / est)


@dataclass(frozen=True)
class QErrorSummary:
    """The q-error distribution summary used by Table 1 of the paper."""

    median: float
    p90: float
    p95: float
    p99: float
    max: float
    mean: float
    count: int

    #: Column order used by the paper's Table 1.
    COLUMNS = ("median", "90th", "95th", "99th", "max", "mean")

    def row(self) -> tuple[float, float, float, float, float, float]:
        """Return the summary as a Table 1 row (median..mean)."""
        return (self.median, self.p90, self.p95, self.p99, self.max, self.mean)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.COLUMNS, self.row()))

    def __str__(self) -> str:
        cells = "  ".join(f"{v:>10.4g}" for v in self.row())
        return f"{cells}  (n={self.count})"


def _contained_mean(arr: np.ndarray, lo: float, hi: float) -> float:
    """Arithmetic mean of ``arr``, guaranteed inside ``[lo, hi]``.

    ``np.mean``'s pairwise summation can land 1 ULP outside the sample
    range (e.g. ``[1.1] * 3``).  When the fast path escapes the bounds,
    recompute the mean exactly over the same float64 values as
    rationals; the single final ``float()`` conversion is correctly
    rounded and monotone, and ``lo``/``hi`` are members of the sample
    (hence exactly representable), so the result cannot escape.
    """
    mean = float(np.mean(arr))
    if lo <= mean <= hi:
        return mean
    total = sum(map(Fraction, arr.tolist()), Fraction(0))
    return float(total / arr.size)


def summarize_qerrors(errors: Iterable[float]) -> QErrorSummary:
    """Summarize a q-error sample into the paper's Table 1 statistics.

    ``min``/``max``/``mean`` come from one pass over the same float64
    values, and the mean provably lies in ``[min, max]`` (see
    :func:`_contained_mean` — no clamping involved).
    """
    arr = np.asarray(list(errors), dtype=np.float64)
    if arr.size == 0:
        raise ReproError("cannot summarize an empty q-error sample")
    if np.any(arr < 1.0 - 1e-9):
        raise ReproError("q-errors must be >= 1; got a smaller value")
    lo = float(np.min(arr))
    hi = float(np.max(arr))
    return QErrorSummary(
        median=float(np.median(arr)),
        p90=float(np.percentile(arr, 90)),
        p95=float(np.percentile(arr, 95)),
        p99=float(np.percentile(arr, 99)),
        max=hi,
        mean=_contained_mean(arr, lo, hi),
        count=int(arr.size),
    )


def summarize_estimates(
    estimates: Iterable[float], truths: Iterable[float]
) -> QErrorSummary:
    """Convenience: q-errors of ``estimates`` vs ``truths``, summarized."""
    return summarize_qerrors(qerrors(estimates, truths))


def format_table(
    rows: Mapping[str, QErrorSummary], title: str = "Estimation errors"
) -> str:
    """Render estimator-name -> summary as a Table 1-style text table."""
    names = list(rows)
    name_width = max([len(n) for n in names] + [len(title)])
    header = " ".join(f"{c:>10}" for c in QErrorSummary.COLUMNS)
    lines = [f"{title:<{name_width}} {header}"]
    for name in names:
        cells = " ".join(f"{v:>10.4g}" for v in rows[name].row())
        lines.append(f"{name:<{name_width}} {cells}")
    return "\n".join(lines)


def relative_error(estimate: float, truth: float) -> float:
    """Signed relative error (est - true) / true, truth clamped to >= 1."""
    tru = max(float(truth), MIN_CARDINALITY)
    return (float(estimate) - tru) / tru


def geometric_mean_qerror(errors: Sequence[float]) -> float:
    """Geometric mean of a q-error sample (robust tail-insensitive score)."""
    arr = np.asarray(errors, dtype=np.float64)
    if arr.size == 0:
        raise ReproError("cannot average an empty q-error sample")
    return float(np.exp(np.mean(np.log(arr))))


# ----------------------------------------------------------------------
# serving telemetry (consumed by repro.serve.engine)
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(int(math.ceil(q * len(ordered))), 1)
    return ordered[rank - 1]


class Counter:
    """A monotonically increasing event counter (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A point-in-time value that can move both ways (thread-safe).

    The gateway keeps its in-flight request count in one: each round
    trip adjusts it up on entry and down on exit, and ``value`` is what
    its ``stats()`` reports.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, value: float = 0):
        self._lock = threading.Lock()
        self._value = value

    def adjust(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


class LatencySummary:
    """Percentile summary over a bounded window of recent observations.

    Observations are seconds (or any nonnegative duration); the window
    bounds memory so a long-running server reports *recent* behavior
    rather than an all-time blur.  ``summary()`` returns the dict shape
    the serving layer has exposed since PR 2: ``count``/``p50``/``p95``/
    ``p99``/``max`` (count as a float, for JSON friendliness).
    """

    __slots__ = ("_lock", "_window")

    def __init__(self, window: int = 8192):
        if window <= 0:
            raise ReproError(f"summary window must be positive, got {window}")
        self._lock = threading.Lock()
        self._window: deque[float] = deque(maxlen=window)

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._window.append(float(seconds))

    def __len__(self) -> int:
        with self._lock:
            return len(self._window)

    def summary(self) -> dict[str, float]:
        with self._lock:
            ordered = sorted(self._window)
        if not ordered:
            return {"count": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}

        def rank(q: float) -> float:
            # Nearest-rank on the already-sorted window: one sort serves
            # every percentile of this snapshot.
            return ordered[max(int(math.ceil(q * len(ordered))), 1) - 1]

        return {
            "count": float(len(ordered)),
            "p50": rank(0.50),
            "p95": rank(0.95),
            "p99": rank(0.99),
            "max": ordered[-1],
        }

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"LatencySummary(n={s['count']:.0f}, p50={s['p50']:.6f}, "
            f"p99={s['p99']:.6f})"
        )
