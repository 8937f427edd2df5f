"""On-disk page file: trees operating from real page images."""

import numpy as np
import pytest

from repro.ams import RTreeExtension
from repro.bulk import bulk_load
from repro.core.xjb import XJBExtension
from repro.gist import GiST, validate_tree
from repro.storage.diskfile import FilePageFile

from tests.conftest import brute_knn


@pytest.fixture
def disk_tree(tmp_path):
    ext = RTreeExtension(3)
    store = FilePageFile.for_extension(str(tmp_path / "pages.bin"),
                                       ext, page_size=2048)
    pts = np.random.default_rng(0).normal(size=(2000, 3))
    tree = bulk_load(ext, pts, page_size=2048, store=store)
    return tree, pts, store


class TestDiskBackedTree:
    def test_bulk_load_and_exact_knn(self, disk_tree):
        tree, pts, _ = disk_tree
        validate_tree(tree, expected_size=2000)
        q = pts[17]
        got = set(r for _, r in tree.knn(q, 20))
        want, dk = brute_knn(pts, q, 20)
        d = np.sqrt(((pts - q) ** 2).sum(axis=1))
        for rid in got ^ want:
            assert d[rid] == pytest.approx(dk)

    def test_reads_counted(self, disk_tree):
        tree, pts, store = disk_tree
        store.stats.reset()
        tree.knn(pts[0], 10)
        assert store.stats.reads > 0
        assert store.stats.leaf_reads >= 1

    def test_read_counts_by_level_and_notifies(self, tmp_path):
        from repro.gist import GiST
        from repro.gist.node import Node

        ext = RTreeExtension(2)
        store = FilePageFile.for_extension(str(tmp_path / "r.bin"), ext,
                                           page_size=1024)
        pid = store.allocate()
        store.write(Node(pid, 0))
        tree = GiST(ext, store=store, page_size=1024)
        seen = []
        tree.add_listener(lambda p, lvl: seen.append((p, lvl)))
        tree._read_query(pid)
        store.peek(pid)                   # uncounted: no event
        assert store.stats.reads == tree.stats.reads == 1
        assert store.stats.leaf_reads == 1
        assert seen == [(pid, 0)]
        store.close()

    def test_inserts_and_deletes_persist(self, disk_tree):
        tree, pts, store = disk_tree
        extra = np.random.default_rng(1).normal(size=(100, 3))
        for i, p in enumerate(extra):
            tree.insert(p, 2000 + i)
        for i in range(0, 50):
            assert tree.delete(pts[i], i)
        validate_tree(tree, expected_size=2050)

    def test_survives_reopen(self, tmp_path):
        ext = RTreeExtension(2)
        path = str(tmp_path / "t.bin")
        pts = np.random.default_rng(2).normal(size=(500, 2))
        store = FilePageFile.for_extension(path, ext, page_size=2048)
        tree = bulk_load(ext, pts, page_size=2048, store=store)
        root_id, height, size = tree.root_id, tree.height, tree.size
        q = pts[3]
        want = [r for _, r in tree.knn(q, 10)]
        store.flush()
        store.close()

        store2 = FilePageFile.for_extension(path, RTreeExtension(2),
                                            page_size=2048)
        tree2 = GiST(RTreeExtension(2), store=store2, page_size=2048)
        tree2.adopt(store2.peek(root_id), height, size)
        got = [r for _, r in tree2.knn(q, 10)]
        assert got == want

    def test_freed_pages_fail_loudly_then_recycle(self, tmp_path):
        ext = RTreeExtension(2)
        store = FilePageFile.for_extension(str(tmp_path / "f.bin"),
                                           ext, page_size=2048)
        from repro.gist.node import Node
        node = Node(store.allocate(), 0)
        store.write(node)
        assert node.page_id in store
        store.free(node.page_id)
        assert node.page_id not in store
        with pytest.raises(KeyError):
            store.read(node.page_id)
        assert store.allocate() == node.page_id  # slot recycled

    def test_works_with_fat_predicates(self, tmp_path):
        ext = XJBExtension(3, x=4)
        store = FilePageFile.for_extension(str(tmp_path / "x.bin"),
                                           ext, page_size=2048)
        pts = np.random.default_rng(3).normal(size=(800, 3))
        tree = bulk_load(ext, pts, page_size=2048, store=store)
        validate_tree(tree, expected_size=800)
        got = set(r for _, r in tree.knn(pts[0], 10))
        want, _ = brute_knn(pts, pts[0], 10)
        assert got == want

    def test_context_manager(self, tmp_path):
        ext = RTreeExtension(2)
        with FilePageFile.for_extension(str(tmp_path / "c.bin"), ext,
                                        2048) as store:
            from repro.gist.node import Node
            node = Node(store.allocate(), 0)
            store.write(node)
        with pytest.raises(ValueError):
            store.read(node.page_id)  # closed file
