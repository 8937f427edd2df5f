"""SR-tree extension specifics: the rect-sphere intersection predicate."""

import numpy as np
import pytest

from repro.ams import SRTreeExtension
from repro.bulk import bulk_load

from tests.geometry.shapes import Rect, Sphere
from tests.gist.oracle import (brute_canonical, inner_node,
                               object_contains, pred_object, row_for_keys,
                               row_for_rows)


@pytest.fixture
def ext():
    return SRTreeExtension(2)


def _row(rect, sphere):
    return np.concatenate([rect.lo, rect.hi, sphere.center,
                           [sphere.radius]])


class TestConstruction:
    def test_pred_for_keys_covers_both_ways(self, ext):
        keys = np.random.default_rng(0).normal(size=(40, 2))
        rect, sphere = pred_object(ext, row_for_keys(ext, keys))
        assert rect.contains_points(keys).all()
        assert sphere.contains_points(keys).all()

    def test_sphere_radius_capped_by_rect(self, ext):
        # two unit-square children: their covering ball (radius 1.5 +
        # sqrt(0.5)) reaches past the union rect's farthest corner
        half = np.sqrt(0.5)
        children = [_row(Rect([0.0, 0.0], [1.0, 1.0]),
                         Sphere([0.5, 0.5], half)),
                    _row(Rect([3.0, 0.0], [4.0, 1.0]),
                         Sphere([3.5, 0.5], half))]
        rect, sphere = pred_object(ext, row_for_rows(ext, children))
        assert sphere.radius == pytest.approx(np.sqrt(4.25))
        assert sphere.radius < 1.5 + half

    def test_inner_pred_covers_children(self, ext):
        rng = np.random.default_rng(1)
        children = [row_for_keys(ext, rng.normal(size=(10, 2)) + off)
                    for off in (0.0, 5.0, -3.0)]
        parent = row_for_rows(ext, children)
        for child in children:
            assert ext.covers(parent, child)

    def test_grandparent_covers_too(self, ext):
        rng = np.random.default_rng(2)
        leaves = [row_for_keys(ext, rng.normal(size=(8, 2)) + off)
                  for off in (0.0, 4.0, 8.0, 12.0)]
        mid1 = row_for_rows(ext, leaves[:2])
        mid2 = row_for_rows(ext, leaves[2:])
        top = row_for_rows(ext, [mid1, mid2])
        for leaf in leaves:
            assert ext.covers(top, leaf)


class TestDistances:
    def test_min_dist_is_max_of_components(self, ext):
        rect, sphere = Rect([0.0, 0.0], [2.0, 2.0]), Sphere([1.0, 1.0], 0.5)
        q = np.array([1.0, 3.0])
        got = ext.min_dists_node(inner_node([_row(rect, sphere)]), q)[0]
        assert got == pytest.approx(max(rect.min_dist(q),
                                        sphere.min_dist(q)))

    def test_sphere_tightens_rect_corner(self, ext):
        # A query off the rect corner should see the sphere bound when it
        # is tighter than the rect bound.
        rect, sphere = Rect([0.0, 0.0], [2.0, 2.0]), Sphere([1.0, 1.0], 1.0)
        q = np.array([3.0, 3.0])
        got = ext.min_dists_node(inner_node([_row(rect, sphere)]), q)[0]
        assert got > rect.min_dist(q)

    def test_a_key_on_a_sphere_surface_keeps_its_rank(self):
        """On this grid an inner sphere's computed gap to a key on its
        surface comes out an ulp above its radius: taken as is, ``gap -
        radius`` is positive at distance 0, and the subtree holding the
        lowest-rid copy of the query point ranks behind a copy already
        found.  The sphere bound is lowered by the slack times ``gap +
        radius`` (DESIGN.md section 7)."""
        pts = np.random.default_rng(41).integers(0, 2, (40, 2)) * 1.0
        tree = bulk_load(SRTreeExtension(2), pts, page_size=256)
        q = np.ones(2)
        assert tree.knn(q, 1) == brute_canonical(pts, np.arange(40), q, 1)

    def test_min_dists_node_matches_scalar(self, ext):
        rng = np.random.default_rng(3)
        node = inner_node([row_for_keys(ext, rng.normal(size=(6, 2)) + i)
                           for i in range(10)])
        q = rng.normal(size=2)
        preds = [pred_object(ext, row) for row in node.pred_block()]
        assert np.allclose(ext.min_dists_node(node, q),
                           [max(r.min_dist(q), s.min_dist(q))
                            for r, s in preds])


class TestAlgebra:
    def test_contains_requires_both(self, ext):
        pred = (Rect([0.0, 0.0], [4.0, 4.0]), Sphere([1.0, 1.0], 1.0))
        node = inner_node([_row(*pred)])
        for point, want in (([1.0, 1.5], True),
                            # inside the rect but outside the sphere
                            ([3.5, 3.5], False)):
            point = np.array(point)
            assert ext.contains_node(node, point)[0] == want
            assert object_contains(pred, point) == want
