"""QueryPlanner: plan choice under the measured-time cost model.

The planner is arithmetic over a page census, the store's residency and
the flat file's row count, so most tests drive it with stub trees whose
censuses land on either side of the tree/scan line.  The decision table
at the end builds real trees at tier-1 size and checks the routes the
wall-clock table in EXPERIMENTS.md E10 says are the faster ones.
"""

import json
import math

import numpy as np
import pytest

from repro.ams.flatfile import FlatFile
from repro.bulk import bulk_load
from repro.gist import Plan, QueryPlanner
from repro.gist import planner as planner_module
from repro.storage.buffer import BufferPool
from repro.storage.pagefile import MemoryPageFile
from tests.conftest import make_ext
from tests.gist.oracle import paged_tree

QS = [1, 8, 32, 128]


class StubTree:
    """The minimal census surface QueryPlanner reads."""

    def __init__(self, leaves=100, inners=5, size=10_000,
                 leaf_capacity=170, height=2, quarantined=False,
                 degradation=None, store=None):
        self._by_level = {0: leaves, 1: inners}
        self.size = size
        self.leaf_capacity = leaf_capacity
        self.height = height
        self.quarantine_enabled = quarantined
        self.degradation = degradation
        self.store = MemoryPageFile() if store is None else store

    def nodes_by_level(self):
        return dict(self._by_level)


class StubFlat:
    def __init__(self, rows):
        self.vectors = np.zeros((rows, 5))
        self.num_pages = math.ceil(rows / 170)


class StubDegradation:
    is_degraded = True


def make_planner(tree, flat_rows=40_000):
    return QueryPlanner(tree, StubFlat(flat_rows))


# ---------------------------------------------------------------------------
# routing decisions
# ---------------------------------------------------------------------------

class TestPlanChoice:
    def test_single_query_prefers_tree(self):
        # A lone query pays a whole pass of the scan; a descent scores a
        # handful of resident leaves.
        plan = make_planner(StubTree()).plan_batch(1, 50)
        assert plan.choice == "tree"
        assert plan.est_tree_ms <= plan.est_scan_ms
        assert plan.est_tree_pages < plan.est_scan_pages

    def test_large_batch_prefers_scan(self):
        # 500 queries share the scan's passes, 32 queries to a pass;
        # descents share nothing once every node is resident.
        plan = make_planner(StubTree()).plan_batch(500, 50)
        assert plan.choice == "scan"
        assert plan.est_tree_ms > plan.est_scan_ms

    def test_census_caps_the_tree_estimate(self):
        tree = StubTree(leaves=100, inners=5)
        plan = make_planner(tree).plan_batch(10_000, 500)
        assert plan.est_tree_pages == 105  # never more pages than exist

    def test_quarantined_tree_always_scans(self):
        tree = StubTree(quarantined=True)
        plan = make_planner(tree).plan_batch(1, 50)
        assert plan.choice == "scan"
        assert "quarantined" in plan.reason

    def test_degraded_tree_always_scans(self):
        tree = StubTree(degradation=StubDegradation())
        plan = make_planner(tree).plan_batch(1, 50)
        assert plan.choice == "scan"

    def test_plan_as_dict_is_json_ready(self):
        plan = make_planner(StubTree()).plan_batch(3, 50)
        doc = plan.as_dict()
        assert doc["choice"] in ("tree", "scan")
        assert json.loads(json.dumps(doc)) == doc
        assert isinstance(plan, Plan)

    def test_misses_cost_more_than_hits(self):
        resident = make_planner(StubTree())
        cold = make_planner(StubTree(store=object()))
        assert cold.residency() == 0.0
        assert cold.tree_ms(1, 50) > resident.tree_ms(1, 50)
        # a block reads each page once, so misses stop growing with Q
        assert cold.tree_ms(128, 50) / 128 < cold.tree_ms(1, 50)

    def test_plans_are_pure_functions_of_census_and_store(self):
        planner = make_planner(StubTree())
        assert [planner.plan_batch(q, 50) for q in QS] == \
            [planner.plan_batch(q, 50) for q in QS]


class TestScanPrice:
    def test_linear_in_rows_times_queries_per_pass(self):
        planner = make_planner(StubTree(), flat_rows=100_000)
        one, full = planner.scan_ms(1, 200), planner.scan_ms(32, 200)
        # a pass of 32 costs 31 more queries' rows and results, no more
        assert full - one == pytest.approx(31 * (
            100_000 * planner_module.SCAN_ROW_MS
            + 200 * planner_module.SCAN_RESULT_MS))
        assert planner.scan_ms(64, 200) == pytest.approx(2 * full)

    def test_cost_per_query_never_grows_with_the_block(self):
        planner = make_planner(StubTree(), flat_rows=221_231)
        per_query = [planner.scan_ms(q, 200) / q for q in (1, 2, 8, 32)]
        assert per_query == sorted(per_query, reverse=True)
        assert planner.scan_ms(128, 200) / 128 == pytest.approx(per_query[-1])


# ---------------------------------------------------------------------------
# census plumbing
# ---------------------------------------------------------------------------

class TestCensus:
    def test_avg_leaf_entries_from_observed_fill(self):
        planner = make_planner(StubTree(leaves=100, size=5_000))
        assert planner._avg_leaf_entries == 50.0

    def test_empty_tree_falls_back_to_fill_assumption(self):
        # no leaves to count: a full leaf, and nothing to visit
        tree = StubTree(leaves=0, inners=0, size=0, leaf_capacity=200)
        planner = make_planner(tree)
        assert planner._avg_leaf_entries == 200.0
        assert planner.tree_ms(8, 50) == 0.0
        assert planner.plan_batch(8, 50).choice == "tree"

    def test_real_tree_census(self):
        keys = np.random.default_rng(5).normal(size=(800, 3))
        tree = bulk_load(make_ext("rtree", 3), keys, page_size=1024)
        planner = QueryPlanner(tree, FlatFile(keys))
        assert planner._num_leaves > 0
        assert planner._num_pages > planner._num_leaves
        assert 1.0 <= planner._avg_leaf_entries <= tree.leaf_capacity
        visits = planner.visits_per_level(10)
        assert len(visits) == tree.height
        assert visits[-1] == 1.0  # the root, once per query
        # the decision just has to match the estimates
        plan = planner.plan_batch(1, 10)
        cheaper = "tree" if plan.est_tree_ms <= plan.est_scan_ms else "scan"
        assert plan.choice == cheaper

    def test_residency_follows_the_store(self, tmp_path):
        keys = np.random.default_rng(6).normal(size=(3000, 5))
        flat = FlatFile(keys)
        assert QueryPlanner(bulk_load(make_ext("rtree", 5), keys),
                            flat).residency() == 1.0
        tree = paged_tree(make_ext("rtree", 5), keys,
                          str(tmp_path / "t.pages"), 2048)
        planner = QueryPlanner(tree, flat)
        pages = planner._num_pages
        assert planner.residency() == 0.0
        tree.store = BufferPool(tree.store, pages // 4)
        assert planner.residency() == pytest.approx((pages // 4) / pages)
        tree.store.resize(2 * pages)
        assert planner.residency() == 1.0
        tree.store.close()


# ---------------------------------------------------------------------------
# the decision table on real trees
# ---------------------------------------------------------------------------

def clustered(n, seed):
    """Keys in tight clusters, like the corpus's reduced vectors."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(max(1, n // 200), 5)) * 3.0
    return centers[rng.integers(0, len(centers), n)] \
        + rng.normal(size=(n, 5)) * 0.3


class TestDecisionTable:
    def routes(self, tree, keys):
        planner = QueryPlanner(tree, FlatFile(keys))
        return [planner.plan_batch(q, 200).choice for q in QS]

    @pytest.fixture(scope="class")
    def sq8_rtree(self, tmp_path_factory):
        """100,000 keys on sq8 leaves behind a pool holding every page."""
        keys = clustered(100_000, 1)
        path = tmp_path_factory.mktemp("plan") / "rtree-sq8.pages"
        tree = paged_tree(make_ext("rtree", 5), keys, str(path), 8192, "sq8")
        tree.store = BufferPool(tree.store, tree.num_nodes())
        yield tree, keys
        tree.store.close()

    def test_resident_sq8_rtree_routes_to_the_tree(self, sq8_rtree):
        assert self.routes(*sq8_rtree) == ["tree"] * 4

    def test_small_xjb_scans(self):
        keys = clustered(4_000, 2)
        tree = bulk_load(make_ext("xjb", 5), keys, page_size=8192)
        assert self.routes(tree, keys) == ["scan"] * 4

    def test_xjb_behind_a_tenth_pool_scans_blocks(self, tmp_path):
        keys = clustered(20_000, 3)
        tree = paged_tree(make_ext("xjb", 5), keys,
                          str(tmp_path / "xjb.pages"), 8192)
        tree.store = BufferPool(tree.store, tree.num_nodes() // 10)
        assert self.routes(tree, keys)[1:] == ["scan"] * 3
        tree.store.close()

    def test_quarantined_tree_always_scans(self, sq8_rtree):
        tree, keys = sq8_rtree
        tree.enable_quarantine()
        try:
            assert self.routes(tree, keys) == ["scan"] * 4
        finally:
            tree.disable_quarantine()
            tree.degradation = None
