"""R-tree extension specifics."""

import numpy as np
import pytest

from repro.ams import RTreeExtension

from tests.geometry.shapes import Rect
from tests.gist.oracle import inner_node, row_for_keys, row_for_rows


@pytest.fixture
def ext():
    return RTreeExtension(2)


def _row(lo, hi):
    return np.array(lo + hi, dtype=np.float64)


class TestPredicates:
    def test_pred_for_keys_is_mbr(self, ext):
        keys = np.array([[0.0, 1.0], [2.0, -1.0]])
        assert row_for_keys(ext, keys).tolist() == [0.0, -1.0, 2.0, 1.0]

    def test_pred_for_preds_unions(self, ext):
        rows = [_row([0.0, 0.0], [1.0, 1.0]), _row([3.0, 3.0], [4.0, 4.0])]
        assert row_for_rows(ext, rows).tolist() == [0.0, 0.0, 4.0, 4.0]

    def test_contains_and_covers(self, ext):
        row = _row([0.0, 0.0], [2.0, 2.0])
        assert ext.covers_key(row, np.array([1.0, 2.0]))
        assert not ext.covers_key(row, np.array([3.0, 1.0]))
        assert ext.covers(row, _row([0.5, 0.5], [1.5, 1.5]))
        assert not ext.covers(row, _row([1.0, 1.0], [3.0, 3.0]))


class TestPenalty:
    def test_zero_growth_preferred(self, ext):
        node = inner_node([_row([0.0, 0.0], [10.0, 10.0]),     # holds it
                           _row([20.0, 20.0], [21.0, 21.0])])   # distant
        penalties = ext.penalties_node(node, np.array([5.0, 5.0]))
        assert penalties[0] < penalties[1]

    def test_ties_broken_by_volume(self, ext):
        node = inner_node([_row([4.0, 4.0], [6.0, 6.0]),        # small
                           _row([0.0, 0.0], [10.0, 10.0])])     # large
        # inside both: zero growth
        penalties = ext.penalties_node(node, np.array([5.0, 5.0]))
        assert penalties[0] < penalties[1]


class TestDistances:
    def test_min_dists_node_matches_scalar(self, ext):
        rng = np.random.default_rng(0)
        rects = [Rect.from_points(rng.normal(size=(4, 2)))
                 for _ in range(15)]
        node = inner_node([np.concatenate([r.lo, r.hi]) for r in rects])
        q = rng.normal(size=2)
        batch = ext.min_dists_node(node, q)
        assert np.allclose(batch, [r.min_dist(q) for r in rects])

    def test_node_cache_invalidated_on_mutation(self, ext):
        node = inner_node([_row([0.0, 0.0], [1.0, 1.0])])
        q = np.array([5.0, 0.5])
        assert ext.min_dists_node(node, q)[0] == pytest.approx(4.0)
        node.append(_row([4.0, 0.0], [6.0, 1.0]), 2)
        dists = ext.min_dists_node(node, q)
        assert len(dists) == 2 and dists[1] == 0.0
