"""A bounded, thread-safe least-recently-used cache.

:class:`LRUCache` backs every memo of the estimation and serving paths:

* :mod:`repro.core.sketch` memoizes estimates per canonical query (the
  per-sketch result cache the serving engine answers repeats from);
* :class:`~repro.serve.feature_cache.FeatureCache` keeps template
  structure rows per featurizer;
* :class:`~repro.sampling.bitmaps.PredicateMaskMemo` bounds the
  predicate-mask memo.

The size bound is what limits memory: an entry that is no longer
looked up ages to the stale end and is evicted by newer ones.

Keys must be hashable; :class:`~repro.db.query.Query` qualifies
because it is a frozen dataclass whose three sets are stored canonically
sorted — two queries that differ only in clause order are one cache
entry.  Every read and write takes a per-instance re-entrant lock: a
server's submitting threads ``get`` from the per-sketch result cache
while its flush thread writes it, so concurrent ``get``/``put`` must not
corrupt the recency order.  The lock is uncontended in single-threaded
use and its cost is noise next to even one cached-model forward.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterator

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


__all__ = ["LRUCache", "CacheStats"]
