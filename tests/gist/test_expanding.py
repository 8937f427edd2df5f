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

    def test_empty_tree(self):
        tree = bulk_load(make_ext("rtree", 2), np.empty((0, 2)))
        assert tree.sphere_search(np.zeros(2), 10.0) == []
