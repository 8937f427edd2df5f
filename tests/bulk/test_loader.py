"""Bulk and insertion loading."""

import numpy as np
import pytest

from repro.bulk import bulk_load, insertion_load
from repro.gist import GiST, validate_tree
from repro.storage.diskfile import FilePageFile

from tests.conftest import brute_knn, make_ext


class TestBulkLoad:
    def test_all_methods_build_valid_trees(self, any_method,
                                           clustered_points):
        tree = bulk_load(make_ext(any_method, 3), clustered_points,
                         page_size=4096)
        validate_tree(tree, expected_size=len(clustered_points))

    def test_loading_counts_no_query_ios(self, clustered_points):
        tree = bulk_load(make_ext("rtree", 3), clustered_points,
                         page_size=4096)
        assert tree.stats.reads == 0

    def test_utilization_near_full_by_default(self, clustered_points):
        tree = bulk_load(make_ext("rtree", 3), clustered_points,
                         page_size=4096)
        utils = [tree.node_utilization(n) for n in tree.leaf_nodes()]
        assert np.mean(utils) > 0.9

    def test_fill_factor_reduces_utilization(self, clustered_points):
        tree = bulk_load(make_ext("rtree", 3), clustered_points,
                         page_size=4096, fill=0.6)
        utils = [tree.node_utilization(n) for n in tree.leaf_nodes()]
        assert np.mean(utils) < 0.75
        validate_tree(tree, expected_size=len(clustered_points))

    def test_invalid_fill_rejected(self, clustered_points):
        with pytest.raises(ValueError):
            bulk_load(make_ext("rtree", 3), clustered_points, fill=0.0)

    def test_custom_rids(self):
        pts = np.random.default_rng(0).normal(size=(100, 2))
        rids = list(range(1000, 1100))
        tree = bulk_load(make_ext("rtree", 2), pts, rids=rids,
                         page_size=2048)
        hits = tree.knn(pts[0], 3)
        assert all(1000 <= r < 1100 for _, r in hits)

    def test_rid_length_mismatch(self):
        with pytest.raises(ValueError):
            bulk_load(make_ext("rtree", 2), np.zeros((5, 2)), rids=[1, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "method", ["rtree", "sstree", "srtree", "jb", "xjb", "amap"])
    def test_non_finite_key_rejected_before_any_page(self, method, bad):
        """One NaN coordinate used to bulk-load silently and make its
        leaf-mates unreachable (their leaf's MBR became NaN)."""
        keys = np.random.default_rng(4).normal(size=(500, 3))
        keys[123, 1] = bad
        store = GiST(make_ext(method, 3), page_size=4096).store
        with pytest.raises(ValueError, match="finite"):
            bulk_load(make_ext(method, 3), keys, page_size=4096,
                      store=store)
        assert len(store) == 0 and list(store.page_ids()) == []

    def test_single_point(self):
        tree = bulk_load(make_ext("rtree", 2), np.array([[1.0, 2.0]]))
        assert tree.height == 1
        assert tree.knn(np.zeros(2), 1)[0][1] == 0

    def test_single_page_tree(self):
        pts = np.random.default_rng(1).normal(size=(20, 2))
        tree = bulk_load(make_ext("rtree", 2), pts, page_size=4096)
        assert tree.height == 1
        validate_tree(tree, expected_size=20)

    def test_xjb_page_file_build_answers_knn_exactly(self, tmp_path):
        keys = np.random.default_rng(7).normal(size=(6_000, 5))
        ext = make_ext("xjb", 5)
        store = FilePageFile.for_extension(str(tmp_path / "x.pages"), ext,
                                           page_size=4096)
        tree = bulk_load(ext, keys, page_size=4096, store=store)
        query = keys[123]
        got = [rid for _, rid in tree.knn(query, 10)]
        brute = np.argsort(np.linalg.norm(keys - query, axis=1),
                           kind="stable")[:10]
        assert got == brute.tolist()
        store.close()


class TestIngress:
    """Every input is checked before the store allocates a page."""

    @staticmethod
    def _rejected(tmp_path, match, keys, **kwargs):
        ext = make_ext("rtree", 3)
        path = tmp_path / "t.pages"
        store = FilePageFile.for_extension(str(path), ext, page_size=4096)
        with pytest.raises(ValueError, match=match):
            bulk_load(ext, keys, page_size=4096, store=store, **kwargs)
        store.flush()
        assert path.stat().st_size == 0
        assert store.allocate() == 1    # no page id was handed out
        store.close()

    @pytest.mark.parametrize("width", [2, 4])
    def test_wrong_key_width(self, tmp_path, width):
        keys = np.random.default_rng(0).normal(size=(500, width))
        self._rejected(tmp_path, r"\(n, 3\)", keys)

    def test_wrong_key_width_in_memory(self):
        # The ingress check stops 4-wide keys in a 3-D tree before an
        # in-memory tree's store allocates a page.
        store = GiST(make_ext("rtree", 3)).store
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            bulk_load(make_ext("rtree", 3),
                      np.random.default_rng(0).normal(size=(500, 4)),
                      store=store)
        assert len(store) == 0

    def test_non_integer_rids(self, tmp_path):
        # rids=[0.5] * n used to be truncated to rid 0 for every key.
        keys = np.random.default_rng(0).normal(size=(500, 3))
        self._rejected(tmp_path, "integers", keys, rids=[0.5] * 500)

    def test_invalid_fill_on_empty_keys(self, tmp_path):
        self._rejected(tmp_path, "fill", np.empty((0, 3)), fill=0.0)

    def test_unknown_order_on_empty_keys(self, tmp_path):
        self._rejected(tmp_path, "ordering", np.empty((0, 3)),
                       order="bogus")


class TestInsertionLoad:
    @pytest.mark.parametrize("n", [50, 0])
    def test_explicit_rids_on_sq8_refused_before_a_page(self, tmp_path, n):
        # A quantized tree writes from GiST.exact, which only the
        # default rids attach: refused up front, even on empty keys.
        ext = make_ext("xjb", 3)
        path = tmp_path / "t.pages"
        store = FilePageFile.for_extension(str(path), ext, page_size=4096,
                                           leaf_codec="sq8")
        keys = np.random.default_rng(0).normal(size=(n, 3))
        with pytest.raises(ValueError, match="GiST.exact"):
            insertion_load(ext, keys, rids=list(range(n)), page_size=4096,
                           store=store)
        store.flush()
        assert path.stat().st_size == 0
        assert store.allocate() == 1    # no page id was handed out
        store.close()

    def test_builds_valid_tree(self, clustered_points):
        tree = insertion_load(make_ext("rtree", 3),
                              clustered_points[:600], page_size=4096)
        validate_tree(tree, expected_size=600)

    def test_shuffle_seed_changes_structure(self, clustered_points):
        pts = clustered_points[:600]
        a = insertion_load(make_ext("rtree", 3), pts, page_size=4096,
                           shuffle_seed=1)
        b = insertion_load(make_ext("rtree", 3), pts, page_size=4096,
                           shuffle_seed=2)
        # Same data, same answers, (almost surely) different trees.
        q = pts[0]
        assert set(r for _, r in a.knn(q, 10)) \
            == set(r for _, r in b.knn(q, 10))

    def test_insertion_vs_bulk_same_answers(self, clustered_points):
        pts = clustered_points[:700]
        bulk = bulk_load(make_ext("rtree", 3), pts, page_size=4096)
        ins = insertion_load(make_ext("rtree", 3), pts, page_size=4096)
        for q in pts[::233]:
            want, dk = brute_knn(pts, q, 20)
            for tree in (bulk, ins):
                got = set(r for _, r in tree.knn(q, 20))
                d = np.sqrt(((pts - q) ** 2).sum(axis=1))
                for rid in got ^ want:
                    assert d[rid] == pytest.approx(dk)

    def test_bulk_packs_better_than_insertion(self, clustered_points):
        """The reason the paper bulk-loads: STR packs pages full, so
        the tree has fewer, fuller leaves than insertion loading."""
        pts = clustered_points
        bulk = bulk_load(make_ext("rtree", 3), pts, page_size=4096)
        ins = insertion_load(make_ext("rtree", 3), pts, page_size=4096,
                             shuffle_seed=0)

        def leaf_stats(tree):
            leaves = list(tree.leaf_nodes())
            utils = [tree.node_utilization(n) for n in leaves]
            return len(leaves), np.mean(utils)

        bulk_count, bulk_util = leaf_stats(bulk)
        ins_count, ins_util = leaf_stats(ins)
        assert bulk_count < ins_count
        assert bulk_util > ins_util
