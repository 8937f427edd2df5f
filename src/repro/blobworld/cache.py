"""A small LRU cache of finished two-stage query results.

The paper's serving scenario (section 3: "heavy traffic from millions
of users") repeats popular queries; a finished two-stage result — the
ranked image list for (query blob, reduced dims, candidate count, top
images) — is tiny and immutable, so caching it skips both the index
traversal and the full-dimension re-rank entirely.

The cache knows nothing about the index that produced the results: key
collisions across *different* trees are the caller's problem.  Attach
one cache per (engine, tree) pairing and :meth:`invalidate` it when the
index (or the corpus behind it) changes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: (query_blob, dims, num_blobs, top_images) — every parameter that
#: changes a two-stage query's answer over a fixed corpus and index.
CacheKey = Tuple[int, int, int, int]


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class QueryResultCache:
    """LRU-bounded mapping of query keys to ranked image tuples."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("cache needs at least one slot")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, tuple]" = OrderedDict()
        self.stats = CacheStats()

    def get(self, key: CacheKey) -> Optional[tuple]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: CacheKey, result) -> None:
        self._entries[key] = tuple(result)
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, query_blob: Optional[int] = None) -> int:
        """Drop entries for one query blob — or all of them.

        Returns how many entries were dropped; they are booked as
        invalidations, not evictions.
        """
        if query_blob is None:
            dropped = len(self._entries)
            self._entries.clear()
        else:
            stale = [k for k in self._entries if k[0] == query_blob]
            for k in stale:
                del self._entries[k]
            dropped = len(stale)
        self.stats.invalidations += dropped
        return dropped

    def __len__(self) -> int:
        return len(self._entries)


class CachedBlock:
    """The one cache pass of every batched entry point: each distinct
    key is looked up once, hits land in ``results``, ``misses`` lists
    the positions to compute.  A repeat within the block rides its first
    occurrence (computed once, even without a cache) and books one hit.
    :meth:`fill` puts the computed misses and resolves the repeats from
    the block — never from the cache, which may have evicted them."""

    def __init__(self, cache: Optional[QueryResultCache],
                 keys: Sequence[CacheKey]) -> None:
        self.cache = cache
        self.keys = keys
        self.results: List[Any] = [None] * len(keys)
        self.misses: List[int] = []
        self._repeats: List[Tuple[int, int]] = []
        first: Dict[CacheKey, int] = {}
        for i, key in enumerate(keys):
            j = first.setdefault(key, i)
            if j != i:
                self._repeats.append((i, j))
                continue
            self.results[i] = cache.get(key) if cache is not None else None
            if self.results[i] is None:
                self.misses.append(i)

    def fill(self, computed: Sequence[Any]) -> List[Any]:
        for i, value in zip(self.misses, computed):
            self.results[i] = value
            if self.cache is not None:
                self.cache.put(self.keys[i], value)
        for i, j in self._repeats:
            self.results[i] = self.results[j]
        if self.cache is not None:
            self.cache.stats.hits += len(self._repeats)
        return self.results
