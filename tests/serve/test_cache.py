"""The instance cache: one bounded LRU map behind one lock."""

import sys
import threading

import pytest

from repro.serve import InstanceCache


def _key(index):
    # Content addresses are hex digests; these share every leading
    # digit, so no prefix of the key can tell them apart.
    return "0" * 56 + f"{index:08x}"


class TestInstanceCache:
    def test_capacity_keys_all_fit(self):
        cache = InstanceCache(capacity=8)
        for index in range(8):
            cache.get_or_build(_key(index), lambda: index)
        hits = [cache.get_or_build(_key(index), lambda: None)
                for index in range(8)]
        assert hits == [(index, True) for index in range(8)]
        assert cache.stats()["evictions"] == 0
        assert len(cache) == 8

    def test_lru_order_is_global(self):
        cache = InstanceCache(capacity=2)
        cache.get_or_build("a" * 64, lambda: "a")
        cache.get_or_build("b" * 64, lambda: "b")
        cache.get_or_build("a" * 64, lambda: None)   # refresh a
        cache.get_or_build("c" * 64, lambda: "c")    # evicts b
        assert cache.get_or_build("a" * 64, lambda: None) == ("a", True)
        assert cache.get_or_build("b" * 64, lambda: "b2") \
            == ("b2", False)
        assert cache.stats()["evictions"] == 2

    def test_failed_build_caches_nothing(self):
        cache = InstanceCache(capacity=4)

        def broken():
            raise ValueError("no such instance")

        with pytest.raises(ValueError):
            cache.get_or_build(_key(0), broken)
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1
        assert cache.get_or_build(_key(0), lambda: "ok") == ("ok", False)

    def test_concurrent_misses_keep_the_first_insert(self):
        cache = InstanceCache(capacity=4)
        entered, release = threading.Event(), threading.Event()
        slow = {}

        def slow_build():
            entered.set()
            release.wait(10)
            return "slow"

        thread = threading.Thread(target=lambda: slow.update(
            result=cache.get_or_build(_key(0), slow_build)))
        thread.start()
        assert entered.wait(10)
        # The second miss builds and inserts while the first builds.
        assert cache.get_or_build(_key(0), lambda: "fast") \
            == ("fast", False)
        release.set()
        thread.join(10)
        assert not thread.is_alive()
        assert slow["result"] == ("slow", False)
        assert cache.get_or_build(_key(0), lambda: None) \
            == ("fast", True)
        assert cache.stats()["misses"] == 2
        assert len(cache) == 1

    def test_threads_lose_no_update(self):
        """More threads than cores on a cache smaller than the key set,
        switching as often as the interpreter allows: every call is
        counted once and every value matches its key."""
        cache = InstanceCache(capacity=8)
        calls, threads, wrong = 300, 6, []

        def hammer(offset):
            for index in range(calls):
                key = _key((index * 7 + offset) % 16)
                value, _ = cache.get_or_build(key, lambda: key)
                if value != key:
                    wrong.append((key, value))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer, args=(offset,))
                       for offset in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == calls * threads
        assert len(cache) == 8

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            InstanceCache(capacity=0)
