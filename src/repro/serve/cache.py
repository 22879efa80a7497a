"""Content-addressed LRU cache of resolved instances.

The expensive part of a small verification job is not the trials — it
is rebuilding the static per-instance structure (automorphism search,
BFS trees, kernel tables) that :class:`InstanceContext` memoizes.  The
service therefore caches whole :class:`~repro.serve.jobs.ResolvedInstance`
triples under the job's content address
(:attr:`~repro.serve.schema.JobSpec.identity_key`), so every request
for the same ``(protocol, n, graph)`` after the first reuses a warm
context — the serve-side equivalent of what ``run_trials`` does across
the trials of one batch.

Job threads hit the cache concurrently, so one lock guards the LRU
map.  It is held only for the O(1) map operations — never while
*building* an entry — so two concurrent misses on the same key may
both build; the first insert stays and both callers get a usable
entry (contexts are randomness-free, so either copy is correct).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Tuple, TypeVar

T = TypeVar("T")


class InstanceCache:
    """A bounded, thread-safe LRU map from content address to value."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_or_build(self, key: str,
                     build: Callable[[], T]) -> Tuple[T, bool]:
        """The cached value for ``key`` (LRU-refreshed), or ``build()``
        inserted under it.  Returns ``(value, hit)``.  ``build`` runs
        outside the lock; it may raise, in which case nothing is
        cached."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key], True
            self._misses += 1
        value = build()
        with self._lock:
            if key not in self._entries:
                self._entries[key] = value
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1
            else:
                # A concurrent miss inserted first; keep its entry hot.
                self._entries.move_to_end(key)
        return value, False

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Counters for the service's health/metrics endpoints."""
        return {
            "entries": len(self),
            "capacity": self.capacity,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
        }
