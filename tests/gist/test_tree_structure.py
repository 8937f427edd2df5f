"""Tree shape, capacities, utilization, and range search."""

import numpy as np
import pytest

from repro.bulk import bulk_load
from repro.gist import GiST

from tests.conftest import make_ext
from tests.gist.oracle import brute_canonical


class TestShape:
    def test_fanout_follows_predicate_size(self):
        """Table 3 consequence: bigger BPs, smaller index fanout."""
        caps = {m: GiST(make_ext(m, 5), page_size=8192).index_capacity
                for m in ("rtree", "amap", "xjb", "jb")}
        assert caps["rtree"] > caps["amap"] > caps["xjb"] > caps["jb"]
        assert caps["jb"] >= 2

    def test_leaf_capacity_independent_of_method(self):
        caps = {GiST(make_ext(m, 5), page_size=8192).leaf_capacity
                for m in ("rtree", "jb", "sstree")}
        assert len(caps) == 1

    def test_heights_ordered_by_bp_size(self):
        """The paper's height story: h(rtree) <= h(xjb) <= h(jb)."""
        pts = np.random.default_rng(0).normal(size=(30_000, 5))
        heights = {}
        for m in ("rtree", "xjb", "jb"):
            heights[m] = bulk_load(make_ext(m, 5), pts,
                                   page_size=8192).height
        assert heights["rtree"] <= heights["xjb"] <= heights["jb"]
        assert heights["jb"] > heights["rtree"]

    def test_nodes_by_level_shrinks_upward(self):
        pts = np.random.default_rng(1).normal(size=(5000, 3))
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=2048)
        counts = tree.nodes_by_level()
        levels = sorted(counts)
        for lower, upper in zip(levels, levels[1:]):
            assert counts[upper] < counts[lower]
        assert counts[levels[-1]] == 1  # single root

    def test_parent_map_is_complete(self):
        pts = np.random.default_rng(2).normal(size=(3000, 3))
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=2048)
        parents = tree.parent_map()
        nodes = list(tree.iter_nodes())
        assert len(parents) == len(nodes) - 1
        assert tree.root_id not in parents

    def test_utilization_high_after_bulk_load(self):
        pts = np.random.default_rng(3).normal(size=(5000, 3))
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=2048)
        utils = [tree.node_utilization(n) for n in tree.leaf_nodes()]
        assert np.mean(utils) > 0.85


class TestRangeSearch:
    """A region's contents read back through k-NN: the keys within a
    radius of a center are the canonical top k for k their count."""

    def test_search_matches_brute_force(self, any_method):
        pts = np.random.default_rng(4).normal(size=(1200, 2))
        tree = bulk_load(make_ext(any_method, 2), pts, page_size=2048)
        center = np.zeros(2)
        k = int((np.sqrt((pts ** 2).sum(axis=1)) <= 0.5).sum())
        assert tree.knn(center, k) == brute_canonical(
            pts, np.arange(len(pts)), center, k)

    def test_search_empty_region(self):
        pts = np.random.default_rng(5).normal(size=(500, 2))
        tree = bulk_load(make_ext("rtree", 2), pts, page_size=2048)
        [(dist, _)] = tree.knn(np.array([50.5, 50.5]), 1)
        assert dist > 1.0

    def test_search_whole_space_returns_everything(self, any_method):
        pts = np.random.default_rng(6).normal(size=(400, 2))
        tree = bulk_load(make_ext(any_method, 2), pts, page_size=2048)
        assert tree.knn(np.zeros(2), 500) == brute_canonical(
            pts, np.arange(400), np.zeros(2), 400)
