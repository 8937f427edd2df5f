"""Sphere range search: the fixed-radius form of the k-NN traversal."""

import numpy as np
import pytest

from repro.bulk import bulk_load

from tests.conftest import make_ext


class TestSphereSearch:
    def test_matches_brute_force(self, any_method, clustered_points):
        pts = clustered_points
        tree = bulk_load(make_ext(any_method, 3), pts, page_size=4096)
        center = pts[100]
        radius = 1.2
        got = sorted(r for _, r in tree.sphere_search(center, radius))
        d = np.sqrt(((pts - center) ** 2).sum(axis=1))
        want = sorted(np.nonzero(d <= radius)[0].tolist())
        assert got == want

    def test_distances_returned(self, clustered_points):
        pts = clustered_points
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=4096)
        center = pts[7]
        for dist, rid in tree.sphere_search(center, 0.8):
            assert dist == pytest.approx(
                float(np.linalg.norm(pts[rid] - center)))
            assert dist <= 0.8

    def test_zero_radius_finds_exact_point(self, clustered_points):
        pts = clustered_points
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=4096)
        hits = tree.sphere_search(pts[55], 0.0)
        assert 55 in {rid for _, rid in hits}

    def test_key_at_the_radius_under_a_bound_rounded_up(self):
        """The subtree bound (``min_dists_to_rects``) and the key's own
        distance round this offset differently: the bound comes out one
        ulp above the distance, yet the key at exactly that distance is
        inside the sphere."""
        corner = np.array([6.222991473881656e-06, 3.6882651953703033e-06,
                           7.047953901607234e-06])
        rng = np.random.default_rng(4)
        pts = np.vstack([corner, corner + rng.uniform(0, 1, (99, 3))])
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=1024)
        assert tree.height > 1
        radius = float(np.sqrt((corner ** 2).sum()))
        assert tree.ext.min_dists_node(tree._peek(tree.root_id),
                                       np.zeros(3)).min() > radius
        assert (radius, 0) in tree.sphere_search(np.zeros(3), radius)

    def test_empty_tree(self):
        tree = bulk_load(make_ext("rtree", 2), np.empty((0, 2)))
        assert tree.sphere_search(np.zeros(2), 10.0) == []
