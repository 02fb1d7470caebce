"""Background sketch lifecycle: drift watch, shadow refresh, hot swap.

The paper closes by calling for automation of "the training and
utilization of Deep Sketches in query optimizers".  This module is that
automation for the serving tier: a :class:`LifecycleManager` watches
every sketch an :class:`~repro.serve.engine.EstimationEngine` serves,
and when a sketch goes stale — its materialized samples drift away from
the live database (:func:`~repro.core.maintenance.detect_drift`, at its
per-sample-size threshold) — it

1. **shadow-trains** a replacement on the manager's own background
   thread, completely off the serving path (the engine's flush loop
   never blocks on training; serving continues on the old version
   throughout),
2. **saves** the replacement to the versioned
   :class:`~repro.serve.registry.SketchRegistry` (when one is
   attached), so the whole fleet can pull the same version and a bad
   refresh is one :meth:`rollback` away, and
3. **hot-swaps** it into the live engine via
   :meth:`~repro.serve.engine.EstimationEngine.swap_sketch` — zero
   dropped requests, zero stale answers, every in-flight request
   answered by exactly one snapshot version.

Failures never kill the watcher: every refresh attempt resolves to a
structured :class:`~repro.core.maintenance.RefreshResult` code, failed
sketches retry with capped exponential backoff (non-retryable codes
like ``spec_mismatch`` park the sketch as ``failed``), and a swap that
races :meth:`drop_sketch`/:meth:`close` records a structured
``swap_failed`` and leaves the previous version serving.

State is surfaced three ways: :meth:`state` (JSON-friendly),
``engine.stats()["lifecycle"]`` (the engine reads the attached
manager), and ``/v1/healthz`` (see :mod:`repro.serve.http`).  The
``repro lifecycle`` CLI drives the registry side (list/save/pin/
rollback) against the same on-disk layout.

Deviation note: the ISSUE sketches shadow training "on the existing
process executor"; that executor is estimation-only by design (workers
hold training-free snapshots — see :mod:`repro.serve.executor`), so
training runs on the lifecycle's own daemon thread instead.  The
serving property that matters — the engine loop never blocks on
training — holds either way.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..errors import RegistryError, ReproError, SketchError
from ..core.maintenance import detect_drift, try_refresh_sketch

#: Lifecycle phases a sketch moves through, for state()/healthz readers.
PHASES = ("idle", "drift_check", "shadow_training", "swapping", "failed")

#: Upper bound on the hot-swap barrier wait (refresh swaps and rollbacks).
SWAP_TIMEOUT_S = 30.0

#: Retryable refresh failures back off exponentially from BACKOFF_S,
#: doubling per consecutive failure and capped at BACKOFF_CAP_S; after
#: MAX_RETRIES consecutive failures the sketch parks as ``failed``.
MAX_RETRIES = 3
BACKOFF_S = 1.0
BACKOFF_CAP_S = 60.0


@dataclass(frozen=True)
class LifecycleConfig:
    """Knobs of the background lifecycle manager.

    ``check_interval_s`` paces the watcher thread.  Refresh attempts
    use ``refresh_queries``/``refresh_epochs``; failures retry with
    exponential backoff (:data:`BACKOFF_S` .. :data:`BACKOFF_CAP_S`),
    giving up after :data:`MAX_RETRIES` consecutive failures (the
    sketch parks as ``failed`` until :meth:`LifecycleManager.reset` or
    a rollback).
    """

    check_interval_s: float = 30.0
    refresh_queries: int = 2000
    refresh_epochs: int = 5

    def __post_init__(self):
        if self.check_interval_s <= 0:
            raise SketchError(
                f"check_interval_s must be positive, got {self.check_interval_s}"
            )
        if self.refresh_queries <= 0:
            raise SketchError(
                f"refresh_queries must be positive, got {self.refresh_queries}"
            )
        if self.refresh_epochs <= 0:
            raise SketchError(
                f"refresh_epochs must be positive, got {self.refresh_epochs}"
            )


class _SketchState:
    """Mutable per-sketch lifecycle record (guarded by the manager lock)."""

    __slots__ = (
        "phase",
        "last_drift",
        "last_check_at",
        "failures",
        "last_error",
        "last_code",
        "next_attempt_at",
        "refreshes",
        "last_refresh_at",
    )

    def __init__(self):
        self.phase = "idle"
        self.last_drift: float | None = None
        self.last_check_at: float | None = None
        self.failures = 0
        self.last_error: str | None = None
        self.last_code: str | None = None
        self.next_attempt_at: float | None = None
        self.refreshes = 0
        self.last_refresh_at: float | None = None

    def as_dict(self) -> dict:
        return {
            "phase": self.phase,
            "last_drift": self.last_drift,
            "last_check_at": self.last_check_at,
            "failures": self.failures,
            "last_error": self.last_error,
            "last_code": self.last_code,
            "next_attempt_at": self.next_attempt_at,
            "refreshes": self.refreshes,
            "last_refresh_at": self.last_refresh_at,
        }


class LifecycleManager:
    """Watch, shadow-refresh, and hot-swap the sketches of one engine.

    ``service`` is either an :class:`~repro.serve.engine.EstimationEngine`
    or a service exposing one as ``.engine`` (:class:`SketchServer` does).
    ``specs`` maps sketch name -> the
    :class:`~repro.workload.generator.WorkloadSpec` used to draw
    fine-tuning queries; only named sketches are managed.

    ``refresh_fn``/``drift_fn`` are injectable for fault testing: the
    default refresh is :func:`~repro.core.maintenance.try_refresh_sketch`
    (never raises), the default drift check is
    :func:`~repro.core.maintenance.detect_drift`.

    Construction attaches the manager to the engine
    (``engine.lifecycle = self``) so ``stats()``/healthz expose
    :meth:`state`; :meth:`start` spawns the watcher thread,
    :meth:`run_once` drives one synchronous pass (tests, benches, cron).
    """

    def __init__(
        self,
        service,
        db,
        specs: dict,
        registry=None,
        config: LifecycleConfig | None = None,
        seed: int | None = None,
        refresh_fn=None,
        drift_fn=None,
    ):
        self.engine = getattr(service, "engine", service)
        self.db = db
        self.specs = dict(specs)
        self.registry = registry
        self.config = config or LifecycleConfig()
        self.seed = seed
        self._refresh_fn = refresh_fn or try_refresh_sketch
        self._drift_fn = drift_fn or detect_drift
        self._lock = threading.Lock()
        self._states = {name: _SketchState() for name in self.specs}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._rollbacks = 0
        self._attempts = 0  # varies the refresh seed across retries
        self.engine.lifecycle = self

    # ------------------------------------------------------------------
    # watcher thread
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the background watcher (idempotent)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._watch, name="sketch-lifecycle", daemon=True
            )
            self._thread.start()

    def stop(self, timeout: float | None = 30.0) -> None:
        """Stop the watcher; a refresh in progress finishes first."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    def _watch(self) -> None:
        while not self._stop.is_set():
            try:
                self.run_once()
            except Exception:
                # The watcher never dies: run_once already folds expected
                # failures into structured per-sketch state, so anything
                # arriving here is a bug — skip the cycle and keep
                # watching rather than silently stopping maintenance.
                pass
            self._stop.wait(self.config.check_interval_s)

    # ------------------------------------------------------------------
    # one maintenance pass
    # ------------------------------------------------------------------
    def run_once(self) -> dict:
        """Check every managed sketch once; refresh + swap the stale ones.

        Returns ``{name: phase-after-pass}`` — handy for benches and
        tests driving the lifecycle synchronously.
        """
        outcome = {}
        for name in sorted(self.specs):
            outcome[name] = self._check_one(name)
        return outcome

    def _check_one(self, name: str) -> str:
        state = self._states[name]
        now = time.monotonic()
        with self._lock:
            if state.phase == "failed" and state.next_attempt_at is None:
                return state.phase  # parked (non-retryable / retries spent)
            if state.next_attempt_at is not None and now < state.next_attempt_at:
                return state.phase  # backing off
            state.phase = "drift_check"
            state.last_check_at = time.time()
        try:
            sketch = self.engine.manager.get_sketch(name)
        except SketchError as exc:
            # Dropped since registration: structured record, keep watching
            # (a re-registered sketch under this name resumes management).
            self._record_failure(state, str(exc), "missing_sketch", now)
            return state.phase
        try:
            stale, _drift = self._is_stale(state, sketch)
        except Exception as exc:
            # A drift check against a half-migrated database (renamed
            # table, new column) must not kill maintenance for good.
            self._record_failure(
                state, f"drift check failed: {exc!r}", "drift_check_failed", now
            )
            return state.phase
        if not stale:
            with self._lock:
                state.phase = "idle"
            return state.phase
        return self._refresh_and_swap(name, state, sketch, now)

    def _is_stale(self, state: _SketchState, sketch) -> tuple[bool, float]:
        report = self._drift_fn(sketch, self.db, seed=self.seed)
        drift = report.max_drift()
        with self._lock:
            state.last_drift = drift
        return report.is_stale(), drift

    def _refresh_and_swap(self, name, state, sketch, now) -> str:
        with self._lock:
            state.phase = "shadow_training"
            self._attempts += 1
            attempt_seed = None if self.seed is None else self.seed + self._attempts
        result = self._refresh_fn(
            sketch,
            self.db,
            self.specs[name],
            n_queries=self.config.refresh_queries,
            epochs=self.config.refresh_epochs,
            seed=attempt_seed,
        )
        if not getattr(result, "ok", False):
            error = getattr(result, "error", None) or "refresh returned no sketch"
            code = getattr(result, "code", None) or "internal"
            retryable = getattr(result, "retryable", True)
            self._record_failure(
                state, error, code, time.monotonic(), retryable=retryable
            )
            return state.phase
        replacement = result.sketch
        if self.registry is not None:
            try:
                self.registry.save(
                    replacement, note=f"shadow refresh of {name!r}"
                )
            except (RegistryError, OSError) as exc:
                # The replacement is good but unpublishable: swapping it
                # in would fork this node's version away from the fleet.
                self._record_failure(
                    state, str(exc), "registry_save_failed", time.monotonic()
                )
                return state.phase
        with self._lock:
            state.phase = "swapping"
        try:
            self.engine.swap_sketch(name, replacement, timeout=SWAP_TIMEOUT_S)
        except ReproError as exc:
            # Swap raced a drop/close (or timed out draining): previous
            # version keeps serving; structured record, retry later.
            self._record_failure(
                state, str(exc), "swap_failed", time.monotonic()
            )
            return state.phase
        with self._lock:
            state.phase = "idle"
            state.failures = 0
            state.last_error = None
            state.last_code = None
            state.next_attempt_at = None
            state.refreshes += 1
            state.last_refresh_at = time.time()
        return state.phase

    def _record_failure(
        self, state, error: str, code: str, now: float, retryable: bool = True
    ) -> None:
        with self._lock:
            state.failures += 1
            state.last_error = error
            state.last_code = code
            if not retryable or state.failures > MAX_RETRIES:
                state.phase = "failed"
                state.next_attempt_at = None  # parked until reset()/rollback
            else:
                state.phase = "failed"
                backoff = min(
                    BACKOFF_S * (2.0 ** (state.failures - 1)), BACKOFF_CAP_S
                )
                state.next_attempt_at = now + backoff

    def reset(self, name: str) -> None:
        """Clear a parked sketch's failure state so checks resume."""
        state = self._states[name]
        with self._lock:
            state.phase = "idle"
            state.failures = 0
            state.next_attempt_at = None

    # ------------------------------------------------------------------
    # rollback
    # ------------------------------------------------------------------
    def rollback(self, name: str) -> int:
        """Registry rollback + hot swap; returns the restored version.

        Re-activates the pinned (or previous) version in the registry,
        loads it with checksum verification, and swaps it into the live
        engine.  A corrupt or missing blob raises
        :class:`~repro.errors.RegistryError` *before* anything touches
        the engine — the currently serving version stays live.
        """
        if self.registry is None:
            raise RegistryError(
                f"cannot roll back {name!r}: no registry attached"
            )
        state = self._states.get(name)
        version = self.registry.rollback(name)
        try:
            restored = self.registry.load(name, version)
        except RegistryError:
            if state is not None:
                self._record_failure(
                    state,
                    f"rollback to v{version} failed to load",
                    "rollback_failed",
                    time.monotonic(),
                )
            raise
        self.engine.swap_sketch(name, restored, timeout=SWAP_TIMEOUT_S)
        with self._lock:
            self._rollbacks += 1
            if state is not None:
                state.phase = "idle"
                state.failures = 0
                state.next_attempt_at = None
                state.last_refresh_at = time.time()
        return version

    # ------------------------------------------------------------------
    # state surface
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """JSON-friendly lifecycle snapshot (stats()/healthz read this)."""
        with self._lock:
            sketches = {
                name: state.as_dict() for name, state in self._states.items()
            }
            rollbacks = self._rollbacks
        return {
            "running": self.running,
            "check_interval_s": self.config.check_interval_s,
            "rollbacks": rollbacks,
            "sketches": sketches,
        }


__all__ = [
    "PHASES",
    "LifecycleConfig",
    "LifecycleManager",
]
