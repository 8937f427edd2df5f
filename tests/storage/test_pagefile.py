"""Access counting: a page file counts the reads it performs, and the
tree books every node its query reads return (``GiST.stats`` and the
tree's listeners)."""

import pytest

from repro.ams import RTreeExtension
from repro.gist import GiST
from repro.gist.node import Node
from repro.storage.diskfile import FilePageFile


def _anonymous_store():
    return FilePageFile.for_extension(None, RTreeExtension(2),
                                      page_size=1024)


def _make_store_with_nodes(store=None):
    store = _anonymous_store() if store is None else store
    leaf = Node(store.allocate(), 0)
    inner = Node(store.allocate(), 1)
    store.write(leaf)
    store.write(inner)
    return store, leaf, inner


def _make_tree_with_nodes():
    """An in-memory tree holding one leaf and one inner page."""
    tree = GiST(RTreeExtension(2), page_size=1024)
    _, leaf, inner = _make_store_with_nodes(tree.store)
    return tree, leaf, inner


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
        tree, leaf, inner = _make_tree_with_nodes()
        seen = []
        tree.add_listener(lambda pid, lvl: seen.append((pid, lvl)))
        tree._read_query(leaf.page_id)
        tree._read_query(inner.page_id)
        assert seen == [(leaf.page_id, 0), (inner.page_id, 1)]
        assert tree.stats.reads_by_level == {0: 1, 1: 1}

    def test_listener_removal(self):
        tree, leaf, _ = _make_tree_with_nodes()
        seen = []
        listener = lambda pid, lvl: seen.append(pid)
        tree.add_listener(listener)
        tree.remove_listener(listener)
        tree._read_query(leaf.page_id)
        assert seen == []

    def test_listener_skipped_when_not_counting(self):
        """``_peek`` is the uncounted path: no counter, no listener."""
        tree, leaf, _ = _make_tree_with_nodes()
        seen = []
        tree.add_listener(lambda pid, lvl: seen.append(pid))
        tree._peek(leaf.page_id)
        assert seen == [] and tree.stats.reads == 0


class TestLifecycle:
    def test_allocate_monotonic(self):
        store = _anonymous_store()
        ids = [store.allocate() for _ in range(5)]
        assert ids == sorted(set(ids))

    def test_reserve_bumps_allocator(self):
        store = _anonymous_store()
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

    def test_dropped_anonymous_store_closes_its_file(self, recwarn):
        """An anonymous file has no other owner: dropping its store (or
        the in-memory tree over it) closes it, without a warning."""
        import gc

        store, _, _ = _make_store_with_nodes()
        tree = GiST(RTreeExtension(2), page_size=1024)
        files = [store._file, tree.store.pagefile._file]
        del store, tree
        gc.collect()
        assert all(f.closed for f in files)
        assert not [w for w in recwarn if w.category is ResourceWarning]
