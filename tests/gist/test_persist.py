"""Save/load roundtrips through real page images."""

from unittest import mock

import numpy as np
import pytest

from repro.bulk import bulk_load
from repro.gist import validate_tree
from repro.gist.persist import load_tree, save_tree
from repro.storage.codecs import NodeCodec

from tests.conftest import make_ext


class TestRoundtrip:
    def test_roundtrip_preserves_queries(self, any_method, tmp_path):
        pts = np.random.default_rng(0).normal(size=(1500, 3))
        tree = bulk_load(make_ext(any_method, 3), pts, page_size=4096)
        path = str(tmp_path / "tree.gist")
        save_tree(tree, path)
        reloaded = load_tree(make_ext(any_method, 3), path)
        # Loading decodes lazily: inner pages keep their predicate block.
        inner = [reloaded.store.peek(pid) for pid in reloaded.store.page_ids()]
        inner = [node for node in inner if not node.is_leaf]
        assert inner and all(n.pred_block() is not None for n in inner)
        resaved = str(tmp_path / "resaved.gist")
        save_tree(reloaded, resaved)
        assert open(resaved, "rb").read() == open(path, "rb").read()
        validate_tree(reloaded, expected_size=1500)
        for q in pts[::571]:
            a = [r for _, r in tree.knn(q, 12)]
            b = [r for _, r in reloaded.knn(q, 12)]
            assert a == b

    def test_reloaded_tree_accepts_inserts(self, tmp_path):
        pts = np.random.default_rng(1).normal(size=(500, 2))
        tree = bulk_load(make_ext("rtree", 2), pts, page_size=2048)
        path = str(tmp_path / "t.gist")
        save_tree(tree, path)
        reloaded = load_tree(make_ext("rtree", 2), path)
        for i in range(500, 600):
            reloaded.insert(np.random.default_rng(i).normal(size=2), i)
        validate_tree(reloaded, expected_size=600)

    def test_load_decodes_each_live_page_once(self, tmp_path):
        """The census decode is the only one: ``load_tree`` pins the
        nodes it decoded instead of decoding every page again."""
        pts = np.random.default_rng(3).normal(size=(1500, 3))
        tree = bulk_load(make_ext("xjb", 3), pts, page_size=4096)
        path = str(tmp_path / "t.gist")
        save_tree(tree, path)
        decode = NodeCodec.decode_node
        decoded = []

        def counting(codec, image, page_id, **kwargs):
            decoded.append(page_id)
            return decode(codec, image, page_id, **kwargs)

        with mock.patch.object(NodeCodec, "decode_node", counting):
            reloaded = load_tree(path)
        assert sorted(decoded) == sorted(reloaded.store.page_ids())
        assert len(decoded) == tree.num_nodes()
        # every page is framed: a query reads through no decode
        assert reloaded.knn(pts[0], 12) == tree.knn(pts[0], 12)
        assert reloaded.store.stats.misses == 0

    def test_empty_tree_roundtrip(self, tmp_path):
        tree = bulk_load(make_ext("rtree", 2), np.empty((0, 2)))
        path = str(tmp_path / "e.gist")
        save_tree(tree, path)
        reloaded = load_tree(make_ext("rtree", 2), path)
        assert reloaded.size == 0


class TestHeaderChecks:
    def test_extension_mismatch_rejected(self, tmp_path):
        pts = np.random.default_rng(2).normal(size=(200, 2))
        tree = bulk_load(make_ext("rtree", 2), pts, page_size=2048)
        path = str(tmp_path / "t.gist")
        save_tree(tree, path)
        with pytest.raises(ValueError, match="saved by"):
            load_tree(make_ext("sstree", 2), path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        pts = np.random.default_rng(3).normal(size=(200, 2))
        tree = bulk_load(make_ext("rtree", 2), pts, page_size=2048)
        path = str(tmp_path / "t.gist")
        save_tree(tree, path)
        with pytest.raises(ValueError, match="dimension"):
            load_tree(make_ext("rtree", 3), path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.gist"
        path.write_bytes(b"\x09\x00\x00\x00{\"a\": 1}" + b"\x00" * 100)
        with pytest.raises(ValueError, match="not a saved GiST"):
            load_tree(make_ext("rtree", 2), str(path))


class TestOneRepresentation:
    """A node is its page's arrays, whether it was built in memory or
    read back from the page it was saved to: the same bytes either way,
    after a bulk load and after inserts and deletes that split nodes
    and rewrite predicate rows (an insert or delete that drops a row
    edit cannot find its keys again)."""

    @staticmethod
    def _assert_same_bytes(mem, path, codec):
        loaded = load_tree(path=path)
        # save_tree numbers slots in iter_nodes order
        slot_of = {n.page_id: i + 1 for i, n in enumerate(mem.iter_nodes())}
        pairs = [(mem._peek(mem.root_id), loaded._peek(loaded.root_id))]
        seen = 0
        while pairs:
            a, b = pairs.pop()
            seen += 1
            assert (a.level, len(a)) == (b.level, len(b))
            if a.is_leaf and codec == "f64":
                assert a.rid_array().tobytes() == b.rid_array().tobytes()
                assert a.keys_array().tobytes() == b.keys_array().tobytes()
            elif a.is_leaf:
                # an SQ8 page stores its entries in rid order
                assert np.sort(a.rid_array()).tobytes() \
                    == b.rid_array().tobytes()
            else:
                assert a.pred_block().tobytes() == b.pred_block().tobytes()
                slots = np.array([slot_of[c] for c in a.children()],
                                 dtype=np.int64)
                assert slots.tobytes() == b.child_array().tobytes()
                pairs.extend(zip(map(mem._peek, a.children()),
                                 map(loaded._peek, b.children())))
        assert seen == loaded.num_nodes() == mem.num_nodes()

    @pytest.mark.parametrize("codec", ["f64", "sq8"])
    def test_memory_and_page_hold_identical_bytes(self, any_method, codec,
                                                  tmp_path):
        from repro.storage.codecs import make_leaf_codec
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(400, 3))
        tree = bulk_load(make_ext(any_method, 3), pts, page_size=2048,
                         leaf_codec=make_leaf_codec(codec, 3))
        path = str(tmp_path / "t.gist")
        save_tree(tree, path)
        self._assert_same_bytes(tree, path, codec)

        nodes = tree.num_nodes()
        fresh = rng.normal(size=(120, 3)) * 2.0
        if codec == "sq8":
            # an in-memory sq8 tree holds quantized pages and refits
            # them to ``exact``, so every rid it will hold needs its
            # original key there, as a MutableTree's does
            exact = np.zeros((10_000 + len(fresh), 3))
            exact[:len(pts)] = pts
            exact[10_000:] = fresh
            tree.exact = exact
        for i, key in enumerate(fresh):
            tree.insert(key, 10_000 + i)
        assert tree.num_nodes() > nodes         # full leaves split
        for i in range(0, 120, 3):
            assert tree.delete(fresh[i], 10_000 + i)
        for i in range(0, 400, 5):
            assert tree.delete(pts[i], i)
        save_tree(tree, path)
        self._assert_same_bytes(tree, path, codec)


class TestInMemoryPages:
    """An in-memory tree is page images: a bulk load with no store writes
    the bytes, page for page, that the same build writes into a page
    file — quantized leaves included, so an in-memory sq8 tree reads
    back sq8 leaves."""

    @pytest.mark.parametrize("codec", ["f64", "sq8"])
    def test_memory_build_writes_the_file_build_pages(self, any_method,
                                                      codec, tmp_path):
        from repro.storage.codecs import make_leaf_codec
        from repro.storage.diskfile import FilePageFile
        pts = np.random.default_rng(5).normal(size=(600, 3))
        ext = make_ext(any_method, 3)
        mem = bulk_load(ext, pts, page_size=2048,
                        leaf_codec=make_leaf_codec(codec, 3))
        store = FilePageFile.for_extension(str(tmp_path / "t.pages"), ext,
                                           page_size=2048, leaf_codec=codec)
        bulk_load(ext, pts, page_size=2048, store=store)
        pids = store.page_ids()
        assert pids == mem.store.page_ids()
        for pid in pids:
            assert mem.store.pagefile._read_raw(pid) == store._read_raw(pid)
        store.close()
        leaf = next(mem.leaf_nodes()).page_id
        halfwidths = mem.store.read(leaf).key_halfwidths()
        assert (halfwidths is not None) == (codec == "sq8")
