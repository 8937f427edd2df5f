"""Workload profiling correctness."""

import numpy as np
import pytest

from repro.amdb import profile_workload
from repro.bulk import bulk_load

from tests.conftest import make_ext


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(3000, 3))
    tree = bulk_load(make_ext("rtree", 3), pts, page_size=4096)
    queries = pts[rng.choice(3000, 10, replace=False)]
    profile = profile_workload(tree, queries, 40)
    return tree, pts, queries, profile


class TestTraces:
    def test_one_trace_per_query(self, setup):
        _, _, queries, profile = setup
        assert profile.num_queries == len(queries)

    def test_results_have_k_entries(self, setup):
        _, _, _, profile = setup
        assert all(len(t.results) == 40 for t in profile.traces)

    def test_traces_match_store_counters(self, setup):
        tree, _, _, profile = setup
        assert profile.total_leaf_ios == tree.stats.leaf_reads
        assert profile.total_inner_ios == tree.stats.inner_reads

    def test_every_result_leaf_was_accessed(self, setup):
        """Conservative BPs guarantee result leaves are read."""
        _, _, _, profile = setup
        for trace in profile.traces:
            assert profile.result_leaves(trace) \
                <= set(trace.leaf_accesses)

    def test_root_counted_once_per_query(self, setup):
        tree, _, _, profile = setup
        for trace in profile.traces:
            assert trace.inner_accesses.count(tree.root_id) == 1


class TestTreeFacts:
    def test_rid_to_leaf_is_total(self, setup):
        _, pts, _, profile = setup
        assert len(profile.rid_to_leaf) == len(pts)

    def test_node_counts(self, setup):
        tree, _, _, profile = setup
        assert profile.num_leaves + profile.num_inner == tree.num_nodes()

    def test_utilizations_sane(self, setup):
        _, _, _, profile = setup
        for util in profile.leaf_utilization.values():
            assert 0.0 < util <= 1.0

    def test_result_subtree_pages_include_root(self, setup):
        tree, _, _, profile = setup
        for trace in profile.traces:
            assert tree.root_id in profile.result_subtree_pages(trace)

    def test_pages_touched_subset_of_tree(self, setup):
        tree, _, _, profile = setup
        all_pages = {n.page_id for n in tree.iter_nodes()}
        assert profile.pages_touched() <= all_pages
