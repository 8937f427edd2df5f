"""Tests for the access-counting page file."""

import pytest

from repro.gist.node import Node
from repro.storage.pagefile import MemoryPageFile


def _make_store_with_nodes():
    store = MemoryPageFile()
    leaf = Node(store.allocate(), 0)
    inner = Node(store.allocate(), 1)
    store.write(leaf)
    store.write(inner)
    return store, leaf, inner


class TestAccounting:
    def test_reads_counted_by_level(self):
        store, leaf, inner = _make_store_with_nodes()
        store.read(leaf.page_id)
        store.read(leaf.page_id)
        store.read(inner.page_id)
        assert store.stats.reads == 3
        assert store.stats.leaf_reads == 2
        assert store.stats.inner_reads == 1

    def test_peek_not_counted(self):
        store, leaf, _ = _make_store_with_nodes()
        store.peek(leaf.page_id)
        assert store.stats.reads == 0

    def test_stats_reset(self):
        store, leaf, _ = _make_store_with_nodes()
        store.read(leaf.page_id)
        store.stats.reset()
        assert store.stats.reads == 0
        assert store.stats.reads_by_level == {}


class TestListeners:
    def test_listener_sees_counted_reads(self):
        store, leaf, inner = _make_store_with_nodes()
        seen = []
        store.add_listener(lambda pid, lvl: seen.append((pid, lvl)))
        store.read(leaf.page_id)
        store.read(inner.page_id)
        assert seen == [(leaf.page_id, 0), (inner.page_id, 1)]

    def test_listener_removal(self):
        store, leaf, _ = _make_store_with_nodes()
        seen = []
        listener = lambda pid, lvl: seen.append(pid)
        store.add_listener(listener)
        store.remove_listener(listener)
        store.read(leaf.page_id)
        assert seen == []

    def test_listener_skipped_when_not_counting(self):
        """``peek`` is the uncounted path: no counter, no listener."""
        store, leaf, _ = _make_store_with_nodes()
        seen = []
        store.add_listener(lambda pid, lvl: seen.append(pid))
        store.peek(leaf.page_id)
        assert seen == [] and store.stats.reads == 0


class TestLifecycle:
    def test_allocate_monotonic(self):
        store = MemoryPageFile()
        ids = [store.allocate() for _ in range(5)]
        assert ids == sorted(set(ids))

    def test_reserve_bumps_allocator(self):
        store = MemoryPageFile()
        store.reserve(100)
        assert store.allocate() == 101

    def test_free_and_contains(self):
        store, leaf, _ = _make_store_with_nodes()
        assert leaf.page_id in store
        store.free(leaf.page_id)
        assert leaf.page_id not in store
        with pytest.raises(KeyError):
            store.read(leaf.page_id)

    def test_len_and_page_ids(self):
        store, leaf, inner = _make_store_with_nodes()
        assert len(store) == 2
        assert set(store.page_ids()) == {leaf.page_id, inner.page_id}
