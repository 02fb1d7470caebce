"""Bounded in-memory caches: plain LRU and LRU-with-TTL.

Two cache classes back the estimation and serving fast paths:

* :class:`LRUCache` — least-recently-used eviction with hit/miss
  accounting.  Used by :mod:`repro.core.sketch` to memoize estimates
  per canonical query and by
  :class:`~repro.sampling.bitmaps.PredicateMaskMemo` to bound the
  predicate-mask memo.
* :class:`TTLCache` — the same interface plus a per-entry time-to-live,
  used by the serving layer's shared template-keyed feature cache
  (:mod:`repro.serve.feature_cache`), where entries derived from a
  sketch's vocabulary must not outlive a dropped/rebuilt sketch by more
  than the configured TTL.

Keys must be hashable; :class:`~repro.db.query.Query` qualifies
because it is a frozen dataclass whose three sets are stored canonically
sorted — two queries that differ only in clause order are one cache
entry.  Both classes synchronize internally (a per-instance re-entrant
lock around every mutation and read): a server's submitting threads
peek the per-sketch result cache while its flush thread writes it and
the predicate-mask memo, so both must tolerate concurrent
``peek``/``get``/``put`` without corrupting the recency order.  The
lock is uncontended in single-threaded use and its cost is noise next
to even one cached-model forward.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator

from .errors import ReproError

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Cumulative counters for one cache instance."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """Least-recently-used mapping with a fixed capacity.

    ``get`` refreshes recency; ``put`` evicts the stalest entry once
    ``maxsize`` is exceeded.  A ``maxsize`` of zero disables storage
    entirely (every lookup is a miss), which keeps call sites free of
    "is caching on?" branches.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 0:
            raise ReproError(f"cache maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.RLock()
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __iter__(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._data))

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Cached value for ``key`` (refreshing recency), else ``default``."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._hits += 1
            self._data.move_to_end(key)
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but touches neither recency nor counters."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            return default if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are cumulative and survive)."""
        with self._lock:
            self._data.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                maxsize=self.maxsize,
            )

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"LRUCache(size={s.size}/{s.maxsize}, hits={s.hits}, "
            f"misses={s.misses}, evictions={s.evictions})"
        )


class TTLCache:
    """LRU cache whose entries also expire after ``ttl_seconds``.

    The interface mirrors :class:`LRUCache` (``get``/``peek``/``put``/
    ``clear``/``stats``); an expired entry behaves exactly like a
    missing one (counted as a miss and dropped on access).
    ``ttl_seconds=None`` disables expiry, leaving pure LRU semantics.
    ``clock`` is injectable so tests can advance time deterministically;
    it defaults to :func:`time.monotonic`.

    Expired entries are reaped lazily — on the access that finds them
    and wholesale in :meth:`purge_expired` — so a cache that stops being
    queried holds at most ``maxsize`` stale entries, never grows.
    """

    def __init__(
        self,
        maxsize: int = 4096,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if maxsize < 0:
            raise ReproError(f"cache maxsize must be >= 0, got {maxsize}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ReproError(f"cache ttl_seconds must be positive, got {ttl_seconds}")
        self.maxsize = maxsize
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.RLock()
        self._data: OrderedDict[Hashable, tuple[Any, float]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            entry = self._data.get(key)
            return entry is not None and not self._expired(entry[1])

    def _expired(self, deadline: float) -> bool:
        return deadline != float("inf") and self._clock() >= deadline

    def _deadline(self) -> float:
        if self.ttl_seconds is None:
            return float("inf")
        return self._clock() + self.ttl_seconds

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Live cached value for ``key`` (refreshing recency), else ``default``."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self._misses += 1
                return default
            value, deadline = entry
            if self._expired(deadline):
                del self._data[key]
                self._expirations += 1
                self._misses += 1
                return default
            self._hits += 1
            self._data.move_to_end(key)
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but touches neither recency nor counters."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None or self._expired(entry[1]):
                return default
            return entry[0]

    def put(self, key: Hashable, value: Any) -> None:
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = (value, self._deadline())
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def purge_expired(self) -> int:
        """Drop every expired entry now; returns how many were dropped."""
        with self._lock:
            expired = [
                k for k, (_, deadline) in self._data.items() if self._expired(deadline)
            ]
            for key in expired:
                del self._data[key]
            self._expirations += len(expired)
            return len(expired)

    def clear(self) -> None:
        """Drop all entries (counters are cumulative and survive)."""
        with self._lock:
            self._data.clear()

    @property
    def expirations(self) -> int:
        """Entries dropped because their TTL elapsed (cumulative)."""
        with self._lock:
            return self._expirations

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                maxsize=self.maxsize,
            )

    def __repr__(self) -> str:
        s = self.stats()
        ttl = "inf" if self.ttl_seconds is None else f"{self.ttl_seconds:g}s"
        return (
            f"TTLCache(size={s.size}/{s.maxsize}, ttl={ttl}, hits={s.hits}, "
            f"misses={s.misses}, evictions={s.evictions}, "
            f"expirations={self._expirations})"
        )


__all__ = ["LRUCache", "TTLCache", "CacheStats"]
