"""Tests for the LRU buffer pool."""

import pytest

from repro.ams import RTreeExtension
from repro.gist.node import Node
from repro.storage.buffer import BufferPool
from repro.storage.diskfile import FilePageFile


def _store_with(n):
    store = FilePageFile.for_extension(None, RTreeExtension(2),
                                       page_size=1024)
    nodes = []
    for _ in range(n):
        node = Node(store.allocate(), 0)
        store.write(node)
        nodes.append(node)
    return store, nodes


class TestLRU:
    def test_hit_after_first_read(self):
        store, nodes = _store_with(1)
        pool = BufferPool(store, capacity_pages=2)
        pool.read(nodes[0].page_id)
        pool.read(nodes[0].page_id)
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert store.stats.reads == 1  # only the miss reached the store

    def test_miss_counts_by_level_and_reaches_store(self):
        store, nodes = _store_with(1)
        pool = BufferPool(store, capacity_pages=2)
        pool.read(nodes[0].page_id)
        assert pool.stats.hits == 0
        assert pool.stats.misses == 1
        assert pool.stats.misses_by_level == {0: 1}
        assert store.stats.reads_by_level == {0: 1}

    def test_eviction_order_is_lru(self):
        store, nodes = _store_with(3)
        pool = BufferPool(store, capacity_pages=2)
        a, b, c = (n.page_id for n in nodes)
        pool.read(a)
        pool.read(b)
        pool.read(a)       # a becomes most recent
        pool.read(c)       # evicts b
        pool.read(a)       # hit
        pool.read(b)       # miss again
        assert pool.stats.misses == 4
        assert pool.stats.hits == 2

    def test_capacity_must_be_positive(self):
        store, _ = _store_with(1)
        with pytest.raises(ValueError):
            BufferPool(store, capacity_pages=0)


class TestIntegration:
    def test_write_through_updates_frame(self):
        store, nodes = _store_with(1)
        pool = BufferPool(store, capacity_pages=2)
        pool.read(nodes[0].page_id)
        replacement = Node(nodes[0].page_id, 0)
        pool.write(replacement)
        assert pool.read(nodes[0].page_id) is replacement

    def test_pin_pages_does_not_count(self):
        store, nodes = _store_with(2)
        pool = BufferPool(store, capacity_pages=4)
        pool.pin_pages([n.page_id for n in nodes])
        assert pool.stats.accesses == 0
        assert store.stats.reads == 0
        pool.read(nodes[0].page_id)
        assert pool.stats.hits == 1

    def test_clear_forgets_frames(self):
        store, nodes = _store_with(1)
        pool = BufferPool(store, capacity_pages=2)
        pool.read(nodes[0].page_id)
        pool.clear()
        pool.read(nodes[0].page_id)
        assert pool.stats.misses == 2

    def test_tree_runs_through_buffer_pool(self):
        import numpy as np
        from repro.bulk import bulk_load
        from repro.gist import GiST

        pts = np.random.default_rng(0).normal(size=(2000, 3))
        store = FilePageFile.for_extension(None, RTreeExtension(3),
                                           page_size=4096)
        tree = bulk_load(RTreeExtension(3), pts, store=store,
                         page_size=4096)
        pool = BufferPool(store, capacity_pages=64)
        buffered = GiST(tree.ext, store=pool, page_size=4096)
        buffered.adopt(store.peek(tree.root_id), tree.height, tree.size)

        q = pts[0]
        first = buffered.knn(q, 10)
        second = buffered.knn(q, 10)
        assert [r for _, r in first] == [r for _, r in second]
        assert pool.stats.hits > 0


class TestEvictions:
    def test_lru_victims_are_counted(self):
        store, nodes = _store_with(3)
        pool = BufferPool(store, capacity_pages=2)
        for n in nodes:
            pool.read(n.page_id)
        assert pool.stats.evictions == 1

    def test_resize_shrink_evicts_lru_first(self):
        store, nodes = _store_with(3)
        pool = BufferPool(store, capacity_pages=3)
        a, b, c = (n.page_id for n in nodes)
        pool.read(a)
        pool.read(b)
        pool.read(c)
        pool.read(a)            # a most recent; b is now LRU
        pool.resize(1)
        assert pool.stats.evictions == 2
        pool.read(a)            # survivor is the MRU frame
        assert pool.stats.hits == 2
        pool.read(b)
        assert pool.stats.misses == 4

    def test_resize_grow_keeps_frames(self):
        store, nodes = _store_with(2)
        pool = BufferPool(store, capacity_pages=2)
        for n in nodes:
            pool.read(n.page_id)
        pool.resize(10)
        assert pool.stats.evictions == 0
        for n in nodes:
            pool.read(n.page_id)
        assert pool.stats.hits == 2

    def test_resize_rejects_zero_frames(self):
        store, _ = _store_with(1)
        pool = BufferPool(store, capacity_pages=2)
        with pytest.raises(ValueError):
            pool.resize(0)


class TestReadMany:
    def test_matches_sequential_reads_and_stats(self):
        store, nodes = _store_with(6)
        pids = [n.page_id for n in nodes]
        request = pids[:4] + pids[:2] + pids[4:]

        seq_store, _ = _store_with(6)
        seq_pool = BufferPool(seq_store, capacity_pages=4)
        expected = [seq_pool.read(p) for p in request]

        pool = BufferPool(store, capacity_pages=4)
        got = pool.read_many(request)
        assert [n.page_id for n in got] == [n.page_id for n in expected]
        assert pool.stats.hits == seq_pool.stats.hits
        assert pool.stats.misses == seq_pool.stats.misses
        assert pool.stats.evictions == seq_pool.stats.evictions

    def test_duplicates_resolve_to_one_fetch(self):
        store, nodes = _store_with(1)
        pool = BufferPool(store, capacity_pages=2)
        pid = nodes[0].page_id
        got = pool.read_many([pid, pid, pid])
        assert [n.page_id for n in got] == [pid] * 3
        assert pool.stats.misses == 1
        assert pool.stats.hits == 2


class TestPinOverflow:
    def test_pinning_beyond_capacity_raises(self):
        """Regression: pinning more distinct pages than the pool has
        frames used to silently evict the earliest pins — the 'pinned'
        root path then missed on its first use."""
        store, nodes = _store_with(3)
        pool = BufferPool(store, capacity_pages=2)
        with pytest.raises(ValueError, match="resize"):
            pool.pin_pages([n.page_id for n in nodes])

    def test_duplicate_pins_do_not_overflow(self):
        store, nodes = _store_with(2)
        pool = BufferPool(store, capacity_pages=2)
        pids = [n.page_id for n in nodes]
        pool.pin_pages(pids + pids)      # 4 requests, 2 distinct
        assert pool.stats.accesses == 0
        pool.read(pids[0])
        assert pool.stats.hits == 1
