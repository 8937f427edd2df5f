"""SS-tree extension specifics."""

import numpy as np
import pytest

from repro.ams import SSTreeExtension

from tests.geometry.shapes import Sphere
from tests.gist.oracle import (inner_node, pred_object, row_for_keys,
                               row_for_rows)


@pytest.fixture
def ext():
    return SSTreeExtension(2)


class TestPredicates:
    def test_pred_for_keys_covers(self, ext):
        keys = np.random.default_rng(0).normal(size=(30, 2))
        pred = pred_object(ext, row_for_keys(ext, keys))
        assert pred.contains_points(keys).all()

    def test_pred_for_preds_covers_children(self, ext):
        children = [[0.0, 0.0, 1.0], [5.0, 0.0, 2.0]]
        parent = row_for_rows(ext, children)
        for child in children:
            assert ext.covers(parent, np.array(child))

    def test_penalty_is_centroid_distance(self, ext):
        node = inner_node([[0.0, 0.0, 5.0],        # near
                           [10.0, 0.0, 5.0]])      # far
        penalties = ext.penalties_node(node, np.array([1.0, 0.0]))
        assert penalties.tolist() == [1.0, 9.0]


class TestDistances:
    def test_min_dists_node_matches_scalar(self, ext):
        rng = np.random.default_rng(1)
        spheres = [Sphere(rng.normal(size=2), abs(rng.normal()) + 0.1)
                   for _ in range(12)]
        node = inner_node([np.append(s.center, s.radius) for s in spheres])
        q = rng.normal(size=2)
        assert np.allclose(ext.min_dists_node(node, q),
                           [s.min_dist(q) for s in spheres])

    def test_routing_point_is_center(self, ext):
        block = np.array([[3.0, 4.0, 1.0], [0.5, -2.0, 3.0]])
        assert np.array_equal(ext.routing_points(block),
                              [[3.0, 4.0], [0.5, -2.0]])
