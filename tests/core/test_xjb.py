"""XJB extension: top-X bites and the automatic X selector (section 5.3)."""

import numpy as np
import pytest

from repro.constants import NUMBER_SIZE
from repro.core.xjb import XJBExtension, select_x
from repro.storage.page import entries_per_page

from tests.gist.oracle import pred_object, row_for_keys


def _pred(ext, keys):
    return pred_object(ext, row_for_keys(ext, keys))


class TestPredicateLimit:
    def test_never_more_than_x_bites(self):
        rng = np.random.default_rng(0)
        ext = XJBExtension(3, x=2)
        for _ in range(10):
            pred = _pred(ext, rng.normal(size=(30, 3)))
            assert len(pred.bites) <= 2

    def test_keeps_largest_bites(self):
        keys = np.array([[float(i), float(i)] for i in range(20)])
        full = _pred(XJBExtension(2, x=4), keys)
        limited = _pred(XJBExtension(2, x=1), keys)
        if limited.bites and len(full.bites) > 1:
            best = max(b.volume() for b in full.bites)
            assert limited.bites[0].volume() == pytest.approx(best)

    def test_x_zero_degenerates_to_mbr(self):
        rng = np.random.default_rng(1)
        ext = XJBExtension(2, x=0)
        keys = rng.normal(size=(25, 2))
        row = row_for_keys(ext, keys)
        pred = pred_object(ext, row)
        assert len(pred.bites) == 0
        q = rng.normal(size=2) * 10
        assert ext.refine_dist(row, q, 0.0) == pytest.approx(
            pred.rect.min_dist(q))

    def test_x_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            XJBExtension(2, x=5)
        with pytest.raises(ValueError):
            XJBExtension(2, x=-1)

    def test_conservative(self):
        rng = np.random.default_rng(2)
        ext = XJBExtension(3, x=4)
        keys = rng.normal(size=(50, 3))
        assert _pred(ext, keys).contains_points(keys).all()


class TestSelectX:
    def test_paper_configuration_is_feasible(self):
        """At the paper's scale (221k blobs, D=5, 8 KB pages), the
        selector allows at least the paper's X=10 within one extra
        level."""
        x = select_x(221_231, 5, 8192, max_extra_levels=1)
        assert x >= 10

    def test_zero_extra_levels_allows_smaller_x(self):
        strict = select_x(221_231, 5, 8192, max_extra_levels=0)
        loose = select_x(221_231, 5, 8192, max_extra_levels=2)
        assert strict <= select_x(221_231, 5, 8192) <= loose

    def test_selected_x_respects_height_bound(self):
        import math
        from repro.core.xjb import _index_height
        num_items, dim, page = 221_231, 5, 8192
        x = select_x(num_items, dim, page, max_extra_levels=1)
        leaf_entry = (dim + 1) * NUMBER_SIZE
        leaves = math.ceil(num_items / entries_per_page(page, leaf_entry))
        rect_entry = (2 * dim + 1) * NUMBER_SIZE
        base = _index_height(leaves, entries_per_page(page, rect_entry))
        chosen_entry = rect_entry + (dim + 1) * x * NUMBER_SIZE
        h = _index_height(leaves, entries_per_page(page, chosen_entry))
        assert h <= base + 1

    def test_tiny_dataset_allows_all_corners(self):
        assert select_x(100, 2, 8192) == 4

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            select_x(0, 5, 8192)


class TestTreeBehaviour:
    def test_xjb_knn_exact(self):
        from repro.bulk import bulk_load
        from tests.conftest import brute_knn
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(2000, 3))
        tree = bulk_load(XJBExtension(3, x=4), pts, page_size=4096)
        q = pts[17]
        got = set(r for _, r in tree.knn(q, 30))
        want, dk = brute_knn(pts, q, 30)
        d = np.sqrt(((pts - q) ** 2).sum(axis=1))
        for rid in got ^ want:
            assert d[rid] == pytest.approx(dk)

    def test_xjb_fanout_between_rtree_and_jb(self):
        from repro.gist import GiST
        from repro.ams import RTreeExtension
        from repro.core.jbtree import JBExtension
        r = GiST(RTreeExtension(5), page_size=8192).index_capacity
        x = GiST(XJBExtension(5, x=10), page_size=8192).index_capacity
        j = GiST(JBExtension(5), page_size=8192).index_capacity
        assert r > x > j
