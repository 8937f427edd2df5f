"""Base-class extension defaults and their consistency contracts."""

import numpy as np
import pytest

from repro.ams import RTreeExtension, SSTreeExtension
from repro.gist.extension import GiSTExtension, row_node
from repro.geometry import Rect, Sphere

from tests.gist.oracle import inner_node, leaf_node, pred_object


class TestAbstractContract:
    def test_unimplemented_methods_raise(self):
        ext = GiSTExtension(3)
        node = inner_node(np.zeros((2, 6)))
        leaf = leaf_node(np.zeros((2, 3)))
        for call in (lambda: ext.preds_for_nodes([leaf]),
                     lambda: ext.penalties_node(node, np.zeros(3)),
                     lambda: ext.min_dists_node(node, np.zeros(3)),
                     lambda: ext.contains_node(node, np.zeros(3)),
                     lambda: ext.covers(np.zeros(6), np.zeros(6)),
                     lambda: ext.pick_split(node, 1),
                     lambda: ext.routing_points(np.zeros((2, 6)))):
            with pytest.raises(NotImplementedError):
                call()

    def test_default_config_is_empty(self):
        assert GiSTExtension(2).config() == {}
        assert RTreeExtension(2).config() == {}

    def test_default_refine_is_identity(self):
        ext = RTreeExtension(2)
        assert not ext.has_refinement
        assert ext.refine_dist(np.zeros(4), np.zeros(2), 3.5) == 3.5

    def test_default_widen_hooks_ask_for_a_recompute(self):
        ext = GiSTExtension(2)
        assert ext.widen_key(np.zeros(4), np.zeros(2)) is None
        assert ext.widen(np.zeros(4), np.zeros(4)) is None


class TestDefaultBatchMethods:
    def test_default_min_dists_node_matches_scalar(self):
        """The query-block hook stacks the one-query kernel's rows."""
        ext = SSTreeExtension(2)
        node = inner_node([[float(i), 0.0, 0.5] for i in range(8)])
        queries = np.array([[3.3, 1.0], [-1.0, 0.5], [7.0, 7.0]])
        batch = ext.min_dists_node_multi(node, queries)
        assert batch.shape == (3, 8)
        for row, q in zip(batch, queries):
            assert np.array_equal(row, ext.min_dists_node(node, q))
            assert np.allclose(row, [Sphere(p[:2], p[2]).min_dist(q)
                                     for p in node.pred_block()])

    def test_default_penalties_node_matches_scalar(self):
        """The footprint-routed families (aMAP by its MBR, JB by its
        rect) and the SR-tree (by its sphere's center) rank entries by
        the per-predicate penalty the R-tree and SS-tree kernels use."""
        from repro.ams import SRTreeExtension
        from repro.core.amap import AMapExtension
        from repro.core.jbtree import JBExtension
        from tests.gist.oracle import footprint
        rng = np.random.default_rng(6)
        key = rng.normal(size=2)
        for ext in (AMapExtension(2), JBExtension(2), SRTreeExtension(2)):
            node = inner_node([ext.preds_for_nodes([leaf_node(
                rng.normal(size=(6, 2)) + i)])[0] for i in range(5)])
            preds = [pred_object(ext, row) for row in node.pred_block()]
            if isinstance(ext, SRTreeExtension):
                slow = [float(np.linalg.norm(p[1].center - key))
                        for p in preds]
            else:
                slow = [footprint(p).union_point(key).volume()
                        - footprint(p).volume()
                        + 1e-9 * footprint(p).union_point(key).volume()
                        for p in preds]
            assert np.allclose(ext.penalties_node(node, key), slow,
                               rtol=1e-6, atol=1e-9)

    def test_default_covers_key_is_the_contains_node_rule(self):
        rng = np.random.default_rng(4)
        for ext in (RTreeExtension(2), SSTreeExtension(2)):
            node = inner_node([ext.preds_for_nodes([leaf_node(
                rng.normal(size=(5, 2)) + i)])[0] for i in range(4)])
            for point in rng.normal(size=(20, 2)) * 3:
                assert [ext.covers_key(row, point)
                        for row in node.pred_block()] \
                    == ext.contains_node(node, point).tolist()
                assert ext.covers_key(node.pred_block()[0], point) \
                    == bool(ext.contains_node(row_node(
                        node.pred_block()[0]), point)[0])

    def test_vectorized_overrides_agree_with_defaults(self):
        """R-tree and SS-tree penalty kernels equal the per-predicate
        formulas they replaced: Guttman's enlargement (tie-broken by
        the grown volume) and the distance to the sphere's center."""
        rng = np.random.default_rng(0)

        def enlargement(rect, key):
            grown = rect.union_point(key)
            return grown.volume() - rect.volume() + 1e-9 * grown.volume()

        def center_gap(sphere, key):
            return float(np.linalg.norm(sphere.center - key))

        for ext, rows, penalty in (
            (RTreeExtension(3),
             [np.concatenate([r.lo, r.hi]) for r in
              (Rect.from_points(rng.normal(size=(4, 3)))
               for _ in range(12))], enlargement),
            (SSTreeExtension(3),
             [np.append(rng.normal(size=3), abs(rng.normal()) + 0.1)
              for _ in range(12)], center_gap),
        ):
            node = inner_node(rows)
            key = rng.normal(size=3)
            fast = ext.penalties_node(node, key)
            slow = np.array([penalty(pred_object(ext, row), key)
                             for row in rows])
            # Same argmin even if tie-break epsilons differ slightly.
            assert int(np.argmin(fast)) == int(np.argmin(slow))
            assert np.allclose(fast, slow, rtol=1e-6, atol=1e-9)

    def test_preds_for_nodes_dispatches_on_level(self):
        ext = RTreeExtension(2)
        leaf = leaf_node(np.array([[0.0, 0.0], [2.0, 2.0]]))
        inner = inner_node([[0.0, 0.0, 1.0, 1.0]])
        assert ext.preds_for_nodes([leaf, inner]).tolist() == [
            [0.0, 0.0, 2.0, 2.0], [0.0, 0.0, 1.0, 1.0]]
