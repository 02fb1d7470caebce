"""Shared template-keyed feature cache for templated serving workloads.

Production query streams are dominated by *templates*: the same SQL
shape issued over and over with different constants (dashboards, ORM
queries, prepared statements).  For the MSCN featurization, everything
except the normalized literal slot of each predicate row is a pure
function of that shape — table one-hots, the entire join feature
array, and the column⊕operator prefix of every predicate row.

:class:`FeatureCache` memoizes those structure rows across queries,
across micro-batches, and across the sketches registered with one
server, keyed by ``(featurizer identity, template)`` where the template
is :func:`repro.core.featurization.template_key`.  On a hit, the
featurizer skips all vocabulary lookups and one-hot construction and
only recomputes what genuinely differs between two instances of a
template: the sample-bitmap concatenation and the normalized literal
values.  The assembled arrays are bit-identical to an uncached
featurization, so the cache is a throughput optimization, never a
semantic change.

Entries are scoped to a featurizer *object* — a rebuilt sketch carries
a fresh featurizer, so its stale entries can never be served (they miss
on the identity check).  The backing store is a
:class:`repro.cache.LRUCache`, so the size bound is the only limit
needed: a long-running server fed ever-new templates cannot grow
without limit, and entries of a dropped sketch's featurizer are never
looked up again, age to the stale end and are evicted, which frees the
featurizer they pin.  The store is internally locked; the cache may be
shared between servers and threads.
"""

from __future__ import annotations

from ..cache import CacheStats, LRUCache
from ..core.featurization import Featurizer, TemplateFeatures

#: Default number of distinct (featurizer, template) entries retained.
DEFAULT_FEATURE_CACHE_SIZE = 4096


class FeatureCache:
    """Thread-safe, bounded store of :class:`TemplateFeatures` entries.

    Implements the ``template_cache`` protocol consumed by
    :meth:`repro.core.featurization.Featurizer.featurize_batch`:
    ``lookup(featurizer, key)`` returning an entry or ``None``, and
    ``store(featurizer, key, entry)``.
    """

    def __init__(self, maxsize: int = DEFAULT_FEATURE_CACHE_SIZE):
        self._store = LRUCache(maxsize=maxsize)

    def lookup(self, featurizer: Featurizer, key: tuple) -> TemplateFeatures | None:
        """Cached structure rows for ``key`` built by *this* featurizer.

        Scoping is by ``id(featurizer)`` in the key, and every entry
        holds a strong reference to the featurizer it was built against
        — so while an entry is cached, its id cannot be reused by a
        different live featurizer, and a hit is always vocabulary-exact.
        """
        return self._store.get((id(featurizer), key))

    def store(self, featurizer: Featurizer, key: tuple, entry: TemplateFeatures) -> None:
        self._store.put((id(featurizer), key), entry)

    def clear(self) -> None:
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the backing LRU store."""
        return self._store.stats()

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"FeatureCache(size={s.size}/{s.maxsize}, hits={s.hits}, "
            f"misses={s.misses})"
        )


__all__ = ["FeatureCache", "DEFAULT_FEATURE_CACHE_SIZE"]
