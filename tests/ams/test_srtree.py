"""SR-tree extension specifics: the rect-sphere intersection predicate."""

import numpy as np
import pytest

from repro.ams import SRTreeExtension
from repro.ams.srtree import SRPred, _capped_sphere
from repro.bulk import bulk_load
from repro.geometry import Rect, Sphere

from tests.gist.oracle import brute_canonical


@pytest.fixture
def ext():
    return SRTreeExtension(2)


class TestConstruction:
    def test_pred_for_keys_covers_both_ways(self, ext):
        keys = np.random.default_rng(0).normal(size=(40, 2))
        pred = ext.pred_for_keys(keys)
        assert pred.rect.contains_points(keys).all()
        assert pred.sphere.contains_points(keys).all()

    def test_sphere_radius_capped_by_rect(self, ext):
        rect = Rect([0.0, 0.0], [1.0, 1.0])
        capped = _capped_sphere(np.array([0.5, 0.5]), 100.0, rect)
        assert capped.radius == pytest.approx(np.sqrt(0.5))

    def test_inner_pred_covers_children(self, ext):
        rng = np.random.default_rng(1)
        children = [ext.pred_for_keys(rng.normal(size=(10, 2)) + off)
                    for off in (0.0, 5.0, -3.0)]
        parent = ext.pred_for_preds(children)
        for child in children:
            assert ext.covers_pred(parent, child)

    def test_grandparent_covers_too(self, ext):
        rng = np.random.default_rng(2)
        leaves = [ext.pred_for_keys(rng.normal(size=(8, 2)) + off)
                  for off in (0.0, 4.0, 8.0, 12.0)]
        mid1 = ext.pred_for_preds(leaves[:2])
        mid2 = ext.pred_for_preds(leaves[2:])
        top = ext.pred_for_preds([mid1, mid2])
        for leaf in leaves:
            assert ext.covers_pred(top, leaf)


class TestDistances:
    def test_min_dist_is_max_of_components(self, ext):
        pred = SRPred(Rect([0.0, 0.0], [2.0, 2.0]),
                      Sphere([1.0, 1.0], 0.5))
        q = np.array([1.0, 3.0])
        assert ext.min_dist(pred, q) == pytest.approx(
            max(pred.rect.min_dist(q), pred.sphere.min_dist(q)))

    def test_sphere_tightens_rect_corner(self, ext):
        # A query off the rect corner should see the sphere bound when it
        # is tighter than the rect bound.
        pred = SRPred(Rect([0.0, 0.0], [2.0, 2.0]),
                      Sphere([1.0, 1.0], 1.0))
        q = np.array([3.0, 3.0])
        assert ext.min_dist(pred, q) > pred.rect.min_dist(q)

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
        from repro.gist.entry import IndexEntry
        from repro.gist.node import Node

        rng = np.random.default_rng(3)
        preds = [ext.pred_for_keys(rng.normal(size=(6, 2)) + i)
                 for i in range(10)]
        node = Node.from_entries(
            1, 1, [IndexEntry(p, i) for i, p in enumerate(preds)],
            ext.pred_codec())
        q = rng.normal(size=2)
        assert np.allclose(ext.min_dists_node(node, q),
                           [ext.min_dist(p, q) for p in preds])


class TestAlgebra:
    def test_contains_requires_both(self, ext):
        pred = SRPred(Rect([0.0, 0.0], [4.0, 4.0]),
                      Sphere([1.0, 1.0], 1.0))
        assert ext.contains(pred, np.array([1.0, 1.5]))
        # Inside the rect but outside the sphere:
        assert not ext.contains(pred, np.array([3.5, 3.5]))
