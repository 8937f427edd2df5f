"""BufferPool under failure: eviction, coherence, and pinning."""

import pytest

from repro.ams import RTreeExtension
from repro.gist.node import Node
from repro.storage import (BufferPool, FilePageFile, PageMissingError,
                           TransientIOError)
from repro.storage.faults import FaultPolicy, FaultyPageFile


def _store_with(n):
    store = FilePageFile.for_extension(None, RTreeExtension(2),
                                       page_size=1024)
    nodes = []
    for _ in range(n):
        node = Node(store.allocate(), 0)
        store.write(node)
        nodes.append(node)
    return store, nodes


class TestReadFailure:
    def test_failed_read_caches_nothing(self):
        store, nodes = _store_with(1)
        faulty = FaultyPageFile(store)
        pool = BufferPool(faulty, capacity_pages=2)
        faulty.fail_next_reads(nodes[0].page_id, 1)
        with pytest.raises(TransientIOError):
            pool.read(nodes[0].page_id)
        assert len(pool._frames) == 0
        # The next read is a miss, not a hit on a ghost frame.
        pool.read(nodes[0].page_id)
        assert pool.stats.misses == 1
        assert pool.stats.hits == 0

    def test_eviction_order_survives_mid_read_exception(self):
        store, nodes = _store_with(3)
        faulty = FaultyPageFile(store)
        pool = BufferPool(faulty, capacity_pages=2)
        a, b, c = (n.page_id for n in nodes)
        pool.read(a)
        pool.read(b)                      # LRU order: a, b
        faulty.fail_next_reads(c, 1)
        with pytest.raises(TransientIOError):
            pool.read(c)                  # fails: must not evict a
        assert list(pool._frames) == [a, b]
        pool.read(a)                      # still a hit
        assert pool.stats.hits == 1
        pool.read(c)                      # now succeeds, evicts b
        assert list(pool._frames) == [a, c]


class TestWriteFailure:
    def test_failed_write_through_drops_the_frame(self):
        store, nodes = _store_with(1)

        class ExplodingStore:
            def __init__(self, inner):
                self.inner = inner
                self.explode = False

            def write(self, node):
                if self.explode:
                    raise OSError("disk full")
                self.inner.write(node)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        exploding = ExplodingStore(store)
        pool = BufferPool(exploding, capacity_pages=2)
        pool.read(nodes[0].page_id)
        assert nodes[0].page_id in pool._frames

        exploding.explode = True
        replacement = Node(nodes[0].page_id, 1)
        with pytest.raises(OSError):
            pool.write(replacement)
        # The frame must not serve the version the disk never accepted.
        assert nodes[0].page_id not in pool._frames
        assert pool.read(nodes[0].page_id).level == 0
        assert pool.stats.misses == 2

    def test_successful_write_still_updates_frame(self):
        store, nodes = _store_with(1)
        pool = BufferPool(store, capacity_pages=2)
        pool.read(nodes[0].page_id)
        replacement = Node(nodes[0].page_id, 0)
        pool.write(replacement)
        assert pool.read(nodes[0].page_id) is replacement


class TestPinPages:
    def test_pin_pages_restores_counting_on_failure(self):
        """A pin that fails part way leaves the pool counting as before:
        the page it did frame is a counted hit, the next read a miss."""
        store, nodes = _store_with(2)
        pool = BufferPool(store, capacity_pages=4)
        with pytest.raises(PageMissingError):
            pool.pin_pages([nodes[0].page_id, 999])
        pool.read(nodes[0].page_id)
        pool.read(nodes[1].page_id)
        assert (pool.stats.hits, pool.stats.misses) == (1, 1)
        assert store.stats.reads == 1

    def test_pin_pages_fetches_through_peek(self):
        """Pinning is maintenance: it peeks, so a fault armed on the
        counted read path neither fires nor is spent by it, and nothing
        is counted."""
        store, nodes = _store_with(2)
        faulty = FaultyPageFile(store)
        pool = BufferPool(faulty, capacity_pages=4)
        faulty.fail_next_reads(nodes[1].page_id, 1)
        pool.pin_pages([n.page_id for n in nodes])
        assert pool.stats.accesses == 0 and store.stats.reads == 0
        pool.clear()
        with pytest.raises(TransientIOError):
            pool.read(nodes[1].page_id)
