"""An LRU buffer pool over a page file.

The paper's section 6 argues that total-I/O comparisons change once inner
nodes fit in memory (the reason XJB is preferred over JB in practice).
The buffer pool lets benchmarks quantify that: wrap a page file, replay a
workload, and read the hit/miss split per level.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.storage.errors import TransientIOError
from repro.storage.retry import RetryPolicy, call_with_retry


@dataclass
class BufferStats:
    """Hit/miss counters, split by tree level."""

    hits: int = 0
    misses: int = 0
    misses_by_level: Dict[int, int] = field(default_factory=dict)
    #: frames dropped to make room (LRU victims + resize shrinkage).
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def leaf_misses(self) -> int:
        return self.misses_by_level.get(0, 0)

    @property
    def inner_misses(self) -> int:
        return sum(n for lvl, n in self.misses_by_level.items() if lvl != 0)


class BufferPool:
    """LRU cache of pages; misses fall through to the page file.

    The pool mirrors the page file's read interface so a
    :class:`~repro.gist.tree.GiST` can be pointed at either one.  Only
    *misses* reach the underlying page file, so its counters (and any
    profiler listeners) see buffered I/O traffic.
    """

    def __init__(self, pagefile: Any, capacity_pages: int,
                 retry: Optional[RetryPolicy] = RetryPolicy(),
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if capacity_pages < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.pagefile = pagefile
        self.capacity = capacity_pages
        self.retry = retry
        self._sleep = sleep
        self._frames: "OrderedDict[int, Any]" = OrderedDict()
        self.stats = BufferStats()

    @property
    def counting(self) -> bool:
        return self.pagefile.counting

    @counting.setter
    def counting(self, value: bool) -> None:
        self.pagefile.counting = value

    def read(self, page_id: int) -> Any:
        if page_id in self._frames:
            node = self._frames[page_id]
            self._frames.move_to_end(page_id)
            if self.pagefile.counting:
                self.stats.hits += 1
            return node
        # A read that raises (corrupt page, exhausted retries) must not
        # disturb the frames: no partial node is cached, LRU order keeps
        # reflecting only successful accesses.
        node = call_with_retry(lambda: self.pagefile.read(page_id),
                               self.retry, sleep=self._sleep)
        if self.pagefile.counting:
            self.stats.misses += 1
            lvl = node.level
            self.stats.misses_by_level[lvl] = \
                self.stats.misses_by_level.get(lvl, 0) + 1
        self._frames[page_id] = node
        if len(self._frames) > self.capacity:
            self._frames.popitem(last=False)
            self.stats.evictions += 1
        return node

    def read_many(self, page_ids: Iterable[int]) -> List[Any]:
        """Counted bulk read mirroring ``[self.read(p) for p in page_ids]``.

        Pages missing from the pool are fetched from the page file in a
        single ``read_many`` call (so contiguous slot runs gather and
        their seals batch-verify), then hits and misses are replayed in
        request order against the frames — same LRU order, eviction
        timing, and hit/miss split as the sequential loop.
        """
        page_ids = list(page_ids)
        missing: List[int] = []
        seen = set()
        for pid in page_ids:
            if pid not in self._frames and pid not in seen:
                seen.add(pid)
                missing.append(pid)
        fetched: Dict[int, Any] = {}
        if missing:
            inner_many = getattr(self.pagefile, "read_many", None)
            if inner_many is not None and len(missing) > 1:
                try:
                    fetched = dict(zip(missing, inner_many(missing)))
                except TransientIOError:
                    fetched = {}
            if not fetched:
                for pid in missing:
                    fetched[pid] = call_with_retry(
                        lambda pid=pid: self.pagefile.read(pid),
                        self.retry, sleep=self._sleep)
        nodes: List[Any] = []
        for pid in page_ids:
            if pid in self._frames:
                node = self._frames[pid]
                self._frames.move_to_end(pid)
                if self.pagefile.counting:
                    self.stats.hits += 1
            else:
                node = fetched.pop(pid, None)
                if node is None:
                    # A frame inserted earlier in this batch was already
                    # evicted again (capacity smaller than the batch):
                    # refetch, as the sequential loop would.
                    node = call_with_retry(
                        lambda pid=pid: self.pagefile.read(pid),
                        self.retry, sleep=self._sleep)
                if self.pagefile.counting:
                    self.stats.misses += 1
                    lvl = node.level
                    self.stats.misses_by_level[lvl] = \
                        self.stats.misses_by_level.get(lvl, 0) + 1
                self._frames[pid] = node
                if len(self._frames) > self.capacity:
                    self._frames.popitem(last=False)
                    self.stats.evictions += 1
            nodes.append(node)
        return nodes

    def record_access(self, page_id: int, level: int) -> None:
        """Count a repeat access to an already-fetched page.

        The batch engine fetches each page once per block; every further
        query visiting it within the block would have found the page
        resident, so it books as a buffer hit — the underlying page file
        sees no traffic, mirroring what :meth:`read` does for resident
        pages.

        Only *resident* pages book hits: if the page was never cached —
        or has been evicted since — the repeat access is one a
        sequential run would have served as a miss, so it counts as a
        miss here and as traffic on the underlying page file, instead
        of inflating the hit rate with phantom hits.
        """
        if page_id in self._frames:
            self._frames.move_to_end(page_id)
            if self.pagefile.counting:
                self.stats.hits += 1
            return
        if self.pagefile.counting:
            self.stats.misses += 1
            self.stats.misses_by_level[level] = \
                self.stats.misses_by_level.get(level, 0) + 1
        self.pagefile.record_access(page_id, level)

    def resize(self, capacity_pages: int) -> None:
        """Change the frame budget in place, evicting LRU pages if it
        shrinks."""
        if capacity_pages < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.capacity = capacity_pages
        while len(self._frames) > self.capacity:
            self._frames.popitem(last=False)
            self.stats.evictions += 1

    def peek(self, page_id: int) -> Any:
        return self.pagefile.peek(page_id)

    def write(self, node: Any) -> None:
        # Write-through: the page file is the truth, so it is written
        # first; if that fails, the (now possibly stale) frame is
        # dropped so a later read refetches rather than serving a
        # version the disk never accepted.
        try:
            self.pagefile.write(node)
        except Exception:
            self._frames.pop(node.page_id, None)
            raise
        if node.page_id in self._frames:
            self._frames[node.page_id] = node

    def write_many(self, nodes: Iterable[Any]) -> None:
        """Write-through a batch: ``self.write`` per node, in order.

        Deliberately not delegated to the inner store's bulk path — the
        frame-invalidation bookkeeping of :meth:`write` must run per
        node, so a mid-batch failure leaves no stale frame behind.
        """
        for node in nodes:
            self.write(node)

    def free(self, page_id: int) -> None:
        self._frames.pop(page_id, None)
        self.pagefile.free(page_id)

    def invalidate(self, page_id: int) -> None:
        """Drop a frame whose slot was rewritten beneath the pool.

        The WAL apply phase writes raw page images straight into the
        page file; any resident frame for that slot is stale and must
        not serve reads."""
        self._frames.pop(page_id, None)

    def allocate(self) -> int:
        return self.pagefile.allocate()

    def reserve(self, up_to: int) -> None:
        self.pagefile.reserve(up_to)

    def page_ids(self) -> List[int]:
        return self.pagefile.page_ids()

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames or page_id in self.pagefile

    def __len__(self) -> int:
        return len(self.pagefile)

    def add_listener(self, listener: Callable[[int, int], None]) -> None:
        self.pagefile.add_listener(listener)

    def remove_listener(self, listener: Callable[[int, int], None]) -> None:
        self.pagefile.remove_listener(listener)

    # -- lifecycle ----------------------------------------------------------

    def flush(self) -> None:
        self.pagefile.flush()

    def close(self) -> None:
        self.pagefile.close()

    def __enter__(self) -> "BufferPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def clear(self) -> None:
        """Drop all frames (cold-cache experiments)."""
        self._frames.clear()

    def pin_pages(self, page_ids: Iterable[int]) -> None:
        """Pre-load pages (e.g. all inner nodes) without counting.

        The pinned set must fit in the pool: with more distinct pages
        than frames, later reads would silently evict earlier ones and
        the "pinned" pages would not actually be resident — so that
        raises instead of lying.
        """
        page_ids = list(page_ids)
        distinct = len(set(page_ids))
        if distinct > self.capacity:
            raise ValueError(
                f"cannot pin {distinct} pages into {self.capacity} "
                f"frames; resize() the pool first")
        was_counting = self.pagefile.counting
        self.pagefile.counting = False
        try:
            for page_id in page_ids:
                self.read(page_id)
        finally:
            self.pagefile.counting = was_counting
