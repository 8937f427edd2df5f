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
    *misses* reach the underlying page file, so its counters and the
    pool's ``stats.misses_by_level`` see buffered I/O traffic; the tree
    books every visit.  With ``capacity_pages=math.inf`` no frame is
    ever evicted: that resident pool is an in-memory tree's store.
    """

    def __init__(self, pagefile: Any, capacity_pages: float,
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

    def read(self, page_id: int) -> Any:
        if page_id in self._frames:
            node = self._frames[page_id]
            self._frames.move_to_end(page_id)
            self.stats.hits += 1
            return node
        # A read that raises (corrupt page, exhausted retries) must not
        # disturb the frames: no partial node is cached, LRU order keeps
        # reflecting only successful accesses.
        node = call_with_retry(lambda: self.pagefile.read(page_id),
                               self.retry, sleep=self._sleep)
        self.stats.misses += 1
        self.stats.misses_by_level[node.level] = \
            self.stats.misses_by_level.get(node.level, 0) + 1
        self._install(page_id, node)
        return node

    def _install(self, page_id: int, node: Any) -> None:
        """Frame ``node``, evicting the least recently used frame when
        the pool overflows."""
        self._frames[page_id] = node
        if len(self._frames) > self.capacity:
            self._frames.popitem(last=False)
            self.stats.evictions += 1

    def read_many(self, page_ids: Iterable[int]) -> List[Any]:
        # kept by name only: the spine's trace_store wraps it
        return [self.read(page_id) for page_id in page_ids]

    def resize(self, capacity_pages: float) -> None:
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
        """Pre-load pages (e.g. all inner nodes) without counting: each
        page not yet framed is fetched by the page file's uncounted
        ``peek``.

        The pinned set must fit in the pool: with more distinct pages
        than frames, later reads would silently evict earlier ones and
        the "pinned" pages would not actually be resident — so that
        raises instead of lying.
        """
        page_ids = list(page_ids)
        self._check_pinnable(page_ids)
        for page_id in page_ids:
            if page_id in self._frames:
                self._frames.move_to_end(page_id)
                continue
            self._install(page_id, call_with_retry(
                lambda: self.pagefile.peek(page_id), self.retry,
                sleep=self._sleep))

    def pin_nodes(self, nodes: Iterable[Any]) -> None:
        """Frame nodes already decoded from this pool's page file,
        uncounted, as :meth:`pin_pages` would after decoding them again:
        a loader that decoded every page for its census pins those."""
        nodes = list(nodes)
        self._check_pinnable([node.page_id for node in nodes])
        for node in nodes:
            self._frames.pop(node.page_id, None)
            self._install(node.page_id, node)

    def _check_pinnable(self, page_ids: List[int]) -> None:
        distinct = len(set(page_ids))
        if distinct > self.capacity:
            raise ValueError(
                f"cannot pin {distinct} pages into {self.capacity} "
                f"frames; resize() the pool first")
