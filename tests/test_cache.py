"""LRUCache unit tests: eviction order, stats, degenerate sizes."""

import sys
import threading

import pytest

from repro.cache import LRUCache
from repro.errors import ReproError


class TestBasics:
    def test_put_get_roundtrip(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1.0)
        assert cache.get("a") == 1.0
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_default(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("missing") is None
        assert cache.get("missing", default=-1) == -1

    def test_overwrite_updates_value(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1.0)
        cache.put("a", 2.0)
        assert cache.get("a") == 2.0
        assert len(cache) == 1


class TestEviction:
    def test_lru_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")      # refresh a; b becomes stalest
        cache.put("c", 3)   # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_put_of_existing_key_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # rewrite a; b becomes stalest
        cache.put("c", 3)   # evicts b
        assert "b" not in cache and cache.get("a") == 10

    def test_eviction_counted(self):
        cache = LRUCache(maxsize=1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.stats().evictions == 1


class TestStatsAndEdges:
    def test_stats_and_hit_rate(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_empty_cache_hit_rate_is_zero(self):
        assert LRUCache().stats().hit_rate == 0.0

    def test_clear_drops_entries_keeps_counters(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_zero_maxsize_disables_storage(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert "a" not in cache
        assert cache.get("a") is None

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ReproError):
            LRUCache(maxsize=-1)

    def test_iteration_yields_keys(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert list(cache) == ["a", "b"]


class TestConcurrency:
    def test_threads_keep_the_bound_and_every_count(self):
        # Submitting threads get from a result cache while a flush
        # thread puts into it; the lock keeps the order and counters.
        cache = LRUCache(maxsize=8)
        n_threads, n_ops = 4, 500

        def work(seed):
            for i in range(n_ops):
                key = (seed * 7 + i) % 20
                if cache.get(key) is None:
                    cache.put(key, key)

        threads = [threading.Thread(target=work, args=(s,)) for s in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        stats = cache.stats()
        assert stats.hits + stats.misses == n_threads * n_ops
        assert len(cache) == 8
        assert all(cache.get(key) == key for key in list(cache))
