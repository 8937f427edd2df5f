"""The expanding sphere: k-NN as the paper frames it (section 5).

A nearest-neighbor query is "in essence" a sphere query whose radius
grows to the k-th distance; the sphere's contents are the canonical
``(distance, rid)`` top k, checked here against brute force.
"""

import numpy as np
import pytest

from repro.bulk import bulk_load

from tests.conftest import make_ext
from tests.gist.oracle import brute_canonical


class TestSphereSearch:
    def test_matches_brute_force(self, any_method, clustered_points):
        pts = clustered_points
        tree = bulk_load(make_ext(any_method, 3), pts, page_size=4096)
        center = pts[100]
        d = np.sqrt(((pts - center) ** 2).sum(axis=1))
        k = int((d <= 1.2).sum())
        assert tree.knn(center, k) == brute_canonical(
            pts, np.arange(len(pts)), center, k)

    def test_distances_returned(self, clustered_points):
        pts = clustered_points
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=4096)
        center = pts[7]
        for dist, rid in tree.knn(center, 40):
            assert dist == pytest.approx(
                float(np.linalg.norm(pts[rid] - center)))

    def test_zero_radius_finds_exact_point(self, clustered_points):
        pts = clustered_points
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=4096)
        assert tree.knn(pts[55], 1) == [(0.0, 55)]

    def test_key_at_the_radius_under_a_bound_rounded_up(self):
        """The subtree bound (``min_dists_to_rects``, an einsum) and a
        key's own distance (a plain sum) round this offset differently:
        the bound of the leaf holding rid 0 comes out one ulp above the
        key's distance.  Its mirror image, rid 62, ties that distance
        bit for bit and sits in a leaf read first; the canonical answer
        still holds rid 0, because a bound is compared only after it is
        lowered by the slack."""
        corner = np.array([6.222991473881656e-06, 3.6882651953703033e-06,
                           7.047953901607234e-06])
        rng = np.random.default_rng(4)
        near = np.vstack([corner, corner + rng.uniform(0, 1, (61, 3))])
        tree = bulk_load(make_ext("rtree", 3), np.vstack([near, -near]),
                         page_size=1024)
        radius = float(np.sqrt((corner ** 2).sum()))
        root = tree._peek(tree.root_id)
        bounds = tree.ext.min_dists_node(root, np.zeros(3))
        holder = {rid: i for i, child in enumerate(root.children())
                  for rid in tree._peek(child).rid_array().tolist()}
        assert holder[62] < holder[0]
        assert bounds[holder[0]] == bounds[holder[62]] > radius
        assert tree.knn(np.zeros(3), 1) == [(radius, 0)]
        assert tree.knn(np.zeros(3), 2) == [(radius, 0), (radius, 62)]

    def test_empty_tree(self):
        tree = bulk_load(make_ext("rtree", 2), np.empty((0, 2)))
        assert tree.knn(np.zeros(2), 10) == []
