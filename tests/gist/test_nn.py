"""Exactness of best-first nearest-neighbor search for every AM.

This is the core safety net: every bounding predicate is conservative,
so k-NN through any tree must return exactly the brute-force answer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bulk import bulk_load
from repro.core.jbtree import JBExtension
from repro.gist.nn import leaf_dists

from tests.conftest import brute_knn, make_ext
from tests.geometry.bite_oracle import decode
from tests.gist.oracle import paged_tree


class TestExactness:
    def test_knn_matches_brute_force(self, any_method, clustered_points):
        pts = clustered_points
        tree = bulk_load(make_ext(any_method, 3), pts, page_size=4096)
        rng = np.random.default_rng(0)
        for q in pts[rng.choice(len(pts), 5, replace=False)]:
            got = set(r for _, r in tree.knn(q, 25))
            want, dk = brute_knn(pts, q, 25)
            # Allow tie swaps at the k-th distance only.
            d = np.sqrt(((pts - q) ** 2).sum(axis=1))
            for rid in got ^ want:
                assert d[rid] == pytest.approx(dk)

    def test_distances_sorted_and_correct(self, clustered_points):
        pts = clustered_points
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=4096)
        q = pts[3]
        res = tree.knn(q, 15)
        dists = [d for d, _ in res]
        assert dists == sorted(dists)
        for d, rid in res:
            assert d == pytest.approx(
                float(np.linalg.norm(pts[rid] - q)))

    def test_far_external_query(self, any_method, clustered_points):
        pts = clustered_points
        tree = bulk_load(make_ext(any_method, 3), pts, page_size=4096)
        q = np.array([100.0, 100.0, 100.0])
        got = set(r for _, r in tree.knn(q, 10))
        want, _ = brute_knn(pts, q, 10)
        assert got == want


class TestEdgeCases:
    def test_empty_tree(self):
        tree = bulk_load(make_ext("rtree", 2), np.empty((0, 2)))
        assert tree.knn(np.zeros(2), 5) == []

    def test_k_larger_than_n(self, clustered_points):
        pts = clustered_points[:37]
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=4096)
        res = tree.knn(pts[0], 100)
        assert len(res) == 37
        assert set(r for _, r in res) == set(range(37))

    def test_k_must_be_positive(self, clustered_points):
        tree = bulk_load(make_ext("rtree", 3), clustered_points[:50],
                         page_size=4096)
        with pytest.raises(ValueError):
            tree.knn(np.zeros(3), 0)

    def test_k_one(self, clustered_points):
        pts = clustered_points
        tree = bulk_load(make_ext("rtree", 3), pts, page_size=4096)
        q = pts[11] + 1e-6
        ((_, rid),) = tree.knn(q, 1)
        want, _ = brute_knn(pts, q, 1)
        assert {rid} == want

    def test_duplicate_points(self):
        pts = np.zeros((50, 2))
        tree = bulk_load(make_ext("rtree", 2), pts, page_size=4096)
        res = tree.knn(np.zeros(2), 10)
        assert len(res) == 10
        assert all(d == 0.0 for d, _ in res)


class TestIngress:
    """One check guards every spelling of the search: a NaN query used
    to return ``(nan, rid)`` rows whose rids depended on the spelling,
    and a 4-D query on a 5-D tree died inside a numpy broadcast."""

    SPELLINGS = {
        "knn": lambda tree, q: tree.knn(q, 5),
        "knn_batch": lambda tree, q: tree.knn_batch(q[None], 5),
        "nn_cursor": lambda tree, q: tree.nn_cursor(q),
    }

    @pytest.fixture(scope="class")
    def tree(self):
        rng = np.random.default_rng(3)
        return bulk_load(make_ext("rtree", 5), rng.normal(size=(300, 5)),
                         page_size=2048)

    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    @pytest.mark.parametrize("bad", [
        np.full(5, np.nan), np.array([0.0, np.inf, 0.0, 0.0, 0.0]),
        np.zeros(4), np.zeros(6), np.zeros((2, 5))],
        ids=["nan", "inf", "4d", "6d", "one-axis-too-many"])
    def test_malformed_query_is_a_value_error(self, tree, spelling, bad):
        with pytest.raises(ValueError):
            self.SPELLINGS[spelling](tree, bad)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_must_be_positive(self, tree, k):
        with pytest.raises(ValueError):
            tree.knn(np.zeros(5), k)
        with pytest.raises(ValueError):
            tree.knn_batch(np.zeros((2, 5)), k)

    def test_check_runs_before_an_empty_tree_answers(self):
        empty = bulk_load(make_ext("rtree", 5), np.empty((0, 5)))
        for search in self.SPELLINGS.values():
            with pytest.raises(ValueError):
                search(empty, np.full(5, np.nan))

    @pytest.mark.parametrize("spelling", sorted(SPELLINGS) + ["canonical"])
    @pytest.mark.parametrize("shape", [(300, 4), (300, 6), (1500,)],
                             ids=["4d", "6d", "flat"])
    def test_exact_of_the_wrong_shape_is_rejected_before_any_read(
            self, spelling, shape, tmp_path):
        """A quantized leaf is ranked by ``GiST.exact[rids]``: a matrix
        of the wrong width would broadcast into garbage distances, so
        assigning it raises, and a quantized tree left with no ``exact``
        refuses every spelling before its root page is read."""
        rng = np.random.default_rng(4)
        keys = rng.normal(size=(300, 5))
        tree = paged_tree(make_ext("rtree", 5), keys,
                          str(tmp_path / "t.pages"), 2048, "sq8")
        assert tree.exact is not None           # attached by the load
        with pytest.raises(ValueError, match="GiST.exact"):
            tree.exact = rng.normal(size=shape)
        assert np.array_equal(tree.exact, keys)
        search = self.SPELLINGS.get(spelling) or (
            lambda tree, q: tree.knn_batch(q[None], 5))
        seen = []
        tree.add_listener(lambda page_id, level: seen.append(page_id))
        tree.exact = None
        with pytest.raises(ValueError, match="GiST.exact"):
            list(search(tree, keys[0]))
        assert seen == []
        leaf = next(tree.leaf_nodes())
        with pytest.raises(ValueError, match="GiST.exact"):
            leaf_dists(tree, leaf, keys[0])
        tree.exact = keys
        list(search(tree, keys[0]))
        assert seen
        tree.store.close()

    def test_well_formed_input_is_converted_not_rejected(self, tree):
        q = [0, 1, 0, -1, 0]            # a list of ints
        assert tree.knn(q, 5) == tree.knn(np.array(q, dtype=float), 5)
        assert tree.knn_batch(np.empty((0, 5)), 5) == []


class TestLazyRefinement:
    def test_refinement_matches_eager_results(self, clustered_points):
        """Lazy bite refinement must not change the result set."""
        pts = clustered_points
        lazy = bulk_load(JBExtension(3), pts, page_size=4096)

        class EagerJB(JBExtension):
            has_refinement = False

            def min_dists_node(self, node, q):
                codec = self.pred_codec()
                return np.array([decode(codec, row).min_dist(q)
                                 for row in node.pred_block()])

        eager = bulk_load(EagerJB(3), pts, page_size=4096)
        for q in pts[::211]:
            a = set(r for _, r in lazy.knn(q, 20))
            b = set(r for _, r in eager.knn(q, 20))
            assert a == b

    def test_refinement_reduces_or_equals_leaf_reads(self, clustered_points):
        """The lazily refined search reads no more leaves than the
        plain-MBR lower bound would."""
        pts = clustered_points

        class NoRefineJB(JBExtension):
            has_refinement = False

        refined = bulk_load(JBExtension(3), pts, page_size=4096)
        plain = bulk_load(NoRefineJB(3), pts, page_size=4096)
        for q in pts[::307]:
            refined.stats.reset()
            plain.stats.reset()
            refined.knn(q, 20)
            plain.knn(q, 20)
            assert refined.stats.leaf_reads \
                <= plain.stats.leaf_reads


class TestPropertyExactness:
    @given(hnp.arrays(np.float64, st.tuples(st.integers(30, 120),
                                            st.just(2)),
                      elements=st.floats(-100, 100, width=32)),
           st.integers(1, 15))
    @settings(max_examples=25, deadline=None)
    def test_xjb_knn_exact_on_arbitrary_data(self, pts, k):
        tree = bulk_load(make_ext("xjb", 2), pts, page_size=2048)
        q = pts[0] + 0.5
        got = sorted(d for d, _ in tree.knn(q, k))
        d = np.sort(np.sqrt(((pts - q) ** 2).sum(axis=1)))[:k]
        assert np.allclose(got, d)
