"""Property test: BufferPool against a reference LRU model."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ams import RTreeExtension
from repro.gist.node import Node
from repro.storage.buffer import BufferPool
from repro.storage.diskfile import FilePageFile


class ReferenceLRU:
    """The textbook LRU policy, for differential testing."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.frames = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, page):
        if page in self.frames:
            self.frames.move_to_end(page)
            self.hits += 1
        else:
            self.misses += 1
            self.frames[page] = True
            if len(self.frames) > self.capacity:
                self.frames.popitem(last=False)


@given(st.integers(1, 8),
       st.lists(st.integers(0, 11), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_pool_matches_reference_lru(capacity, accesses):
    store = FilePageFile.for_extension(None, RTreeExtension(2),
                                       page_size=1024)
    pages = {}
    for _ in range(12):
        node = Node(store.allocate(), 0)
        store.write(node)
        pages[len(pages)] = node.page_id

    pool = BufferPool(store, capacity_pages=capacity)
    ref = ReferenceLRU(capacity)
    for idx in accesses:
        pool.read(pages[idx])
        ref.access(idx)

    assert pool.stats.hits == ref.hits
    assert pool.stats.misses == ref.misses
    # Identical resident sets, in the same recency order.
    resident = [pid for pid in pool._frames]
    expected = [pages[i] for i in ref.frames]
    assert resident == expected


@given(st.lists(st.tuples(st.sampled_from(["read", "free", "clear"]),
                          st.integers(0, 5)),
                min_size=1, max_size=60))
@settings(max_examples=40, deadline=None)
def test_pool_never_serves_freed_pages(ops):
    store = FilePageFile.for_extension(None, RTreeExtension(2),
                                       page_size=1024)
    pages = {}
    for i in range(6):
        node = Node(store.allocate(), 0)
        store.write(node)
        pages[i] = node.page_id
    pool = BufferPool(store, capacity_pages=3)
    alive = set(pages)
    for op, idx in ops:
        if op == "read" and idx in alive:
            assert pool.read(pages[idx]).page_id == pages[idx]
        elif op == "free" and idx in alive:
            pool.free(pages[idx])
            alive.discard(idx)
            with pytest.raises(KeyError):
                pool.read(pages[idx])
        elif op == "clear":
            pool.clear()
