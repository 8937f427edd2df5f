"""R*-tree split variant and the paper's footnote-5 claim."""

import numpy as np
import pytest

from repro.ams import RStarTreeExtension, RTreeExtension
from repro.ams.rstar import rstar_split
from repro.bulk import bulk_load, insertion_load
from repro.gist import validate_tree

from tests.geometry.shapes import Rect


class TestSplit:
    def test_partition_properties(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(30, 2))
        a, b = rstar_split(pts, pts, 6)
        assert sorted(a.tolist() + b.tolist()) == list(range(30))
        assert len(a) >= 6 and len(b) >= 6

    def test_separated_clusters_split_cleanly(self):
        pts = np.concatenate([np.zeros((6, 2)),
                              np.full((6, 2), 50.0)])
        a, b = rstar_split(pts, pts, 2)
        groups = {tuple(sorted(a.tolist())), tuple(sorted(b.tolist()))}
        assert groups == {tuple(range(6)), tuple(range(6, 12))}

    def test_single_entry_rejected(self):
        with pytest.raises(ValueError):
            rstar_split(np.zeros((1, 2)), np.zeros((1, 2)), 1)

    def test_overlap_no_worse_than_quadratic(self):
        """R* picks the minimum-overlap distribution along its axis."""
        from repro.ams.splits import quadratic_split
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 2))

        def overlap(split):
            a, b = split
            ra = Rect.from_points(pts[np.array(a)])
            rb = Rect.from_points(pts[np.array(b)])
            return ra.intersection_volume(rb)

        assert overlap(rstar_split(pts, pts, 8)) \
            <= overlap(quadratic_split(pts, pts, 8)) + 1e-9


class TestTreeBehaviour:
    def test_insertion_loaded_tree_valid_and_exact(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(2000, 3))
        tree = insertion_load(RStarTreeExtension(3), pts, page_size=2048)
        validate_tree(tree, expected_size=2000)
        q = pts[5]
        got = set(r for _, r in tree.knn(q, 15))
        d = np.sqrt(((pts - q) ** 2).sum(axis=1))
        assert got == set(np.argsort(d)[:15].tolist())

    def test_footnote5_bulk_loading_equalizes(self):
        """Footnote 5: bulk loading eliminates the R/R* difference —
        identical STR order gives byte-identical leaf assignments."""
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(3000, 3))
        r = bulk_load(RTreeExtension(3), pts, page_size=2048)
        rs = bulk_load(RStarTreeExtension(3), pts, page_size=2048)
        leaves_r = sorted(tuple(sorted(n.rids())) for n in r.leaf_nodes())
        leaves_rs = sorted(tuple(sorted(n.rids())) for n in rs.leaf_nodes())
        assert leaves_r == leaves_rs
        assert r.height == rs.height

    def test_rstar_insertion_beats_rtree_insertion_overlap(self):
        """The reason R* exists: less overlap under dynamic inserts."""
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1, size=(4000, 2))
        r = insertion_load(RTreeExtension(2), pts, page_size=2048,
                           shuffle_seed=0)
        rs = insertion_load(RStarTreeExtension(2), pts, page_size=2048,
                            shuffle_seed=0)

        def total_leaf_overlap(tree):
            rects = [Rect.from_points(n.keys_array())
                     for n in tree.leaf_nodes() if len(n) > 1]
            total = 0.0
            for i in range(len(rects)):
                for j in range(i + 1, len(rects)):
                    total += rects[i].intersection_volume(rects[j])
            return total

        assert total_leaf_overlap(rs) < total_leaf_overlap(r)
