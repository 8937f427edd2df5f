"""SS-tree extension specifics."""

import numpy as np
import pytest

from repro.ams import SSTreeExtension
from repro.geometry import Sphere


@pytest.fixture
def ext():
    return SSTreeExtension(2)


class TestPredicates:
    def test_pred_for_keys_covers(self, ext):
        keys = np.random.default_rng(0).normal(size=(30, 2))
        pred = ext.pred_for_keys(keys)
        assert pred.contains_points(keys).all()

    def test_pred_for_preds_covers_children(self, ext):
        children = [Sphere([0.0, 0.0], 1.0), Sphere([5.0, 0.0], 2.0)]
        parent = ext.pred_for_preds(children)
        for child in children:
            assert ext.covers_pred(parent, child)

    def test_penalty_is_centroid_distance(self, ext):
        near = Sphere([0.0, 0.0], 5.0)
        far = Sphere([10.0, 0.0], 5.0)
        key = np.array([1.0, 0.0])
        assert ext.penalty(near, key) < ext.penalty(far, key)


class TestDistances:
    def test_min_dists_node_matches_scalar(self, ext):
        from repro.gist.entry import IndexEntry
        from repro.gist.node import Node

        rng = np.random.default_rng(1)
        spheres = [Sphere(rng.normal(size=2), abs(rng.normal()) + 0.1)
                   for _ in range(12)]
        node = Node.from_entries(
            1, 1, [IndexEntry(s, i) for i, s in enumerate(spheres)],
            ext.pred_codec())
        q = rng.normal(size=2)
        assert np.allclose(ext.min_dists_node(node, q),
                           [s.min_dist(q) for s in spheres])

    def test_routing_point_is_center(self, ext):
        s = Sphere([3.0, 4.0], 1.0)
        assert np.array_equal(ext.routing_point(s), [3.0, 4.0])
