"""R-tree extension specifics."""

import numpy as np
import pytest

from repro.ams import RTreeExtension
from repro.geometry import Rect


@pytest.fixture
def ext():
    return RTreeExtension(2)


class TestPredicates:
    def test_pred_for_keys_is_mbr(self, ext):
        keys = np.array([[0.0, 1.0], [2.0, -1.0]])
        pred = ext.pred_for_keys(keys)
        assert pred == Rect([0.0, -1.0], [2.0, 1.0])

    def test_pred_for_preds_unions(self, ext):
        rects = [Rect([0.0, 0.0], [1.0, 1.0]), Rect([3.0, 3.0], [4.0, 4.0])]
        assert ext.pred_for_preds(rects) == Rect([0.0, 0.0], [4.0, 4.0])

    def test_contains_and_covers(self, ext):
        pred = Rect([0.0, 0.0], [2.0, 2.0])
        assert ext.contains(pred, np.array([1.0, 2.0]))
        assert not ext.contains(pred, np.array([3.0, 1.0]))
        assert ext.covers_pred(pred, Rect([0.5, 0.5], [1.5, 1.5]))
        assert not ext.covers_pred(pred, Rect([1.0, 1.0], [3.0, 3.0]))


class TestPenalty:
    def test_zero_growth_preferred(self, ext):
        containing = Rect([0.0, 0.0], [10.0, 10.0])
        distant = Rect([20.0, 20.0], [21.0, 21.0])
        key = np.array([5.0, 5.0])
        assert ext.penalty(containing, key) < ext.penalty(distant, key)

    def test_ties_broken_by_volume(self, ext):
        small = Rect([4.0, 4.0], [6.0, 6.0])
        large = Rect([0.0, 0.0], [10.0, 10.0])
        key = np.array([5.0, 5.0])  # inside both: zero growth
        assert ext.penalty(small, key) < ext.penalty(large, key)


class TestDistances:
    def test_min_dists_node_matches_scalar(self, ext):
        from repro.gist.entry import IndexEntry
        from repro.gist.node import Node

        rng = np.random.default_rng(0)
        rects = [Rect.from_points(rng.normal(size=(4, 2)))
                 for _ in range(15)]
        node = Node.from_entries(
            1, 1, [IndexEntry(r, i) for i, r in enumerate(rects)],
            ext.pred_codec())
        q = rng.normal(size=2)
        batch = ext.min_dists_node(node, q)
        assert np.allclose(batch, [r.min_dist(q) for r in rects])

    def test_node_cache_invalidated_on_mutation(self, ext):
        from repro.gist.entry import IndexEntry
        from repro.gist.node import Node

        r1 = Rect([0.0, 0.0], [1.0, 1.0])
        node = Node.from_entries(1, 1, [IndexEntry(r1, 1)], ext.pred_codec())
        q = np.array([5.0, 0.5])
        assert ext.min_dists_node(node, q)[0] == pytest.approx(4.0)
        node.add_entry(IndexEntry(Rect([4.0, 0.0], [6.0, 1.0]), 2))
        dists = ext.min_dists_node(node, q)
        assert len(dists) == 2 and dists[1] == 0.0
