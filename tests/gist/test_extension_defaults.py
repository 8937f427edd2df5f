"""Base-class extension defaults and their consistency contracts."""

import numpy as np
import pytest

from repro.ams import RTreeExtension, SSTreeExtension
from repro.gist.entry import IndexEntry
from repro.gist.extension import GiSTExtension
from repro.gist.node import Node
from repro.geometry import Rect, Sphere
from repro.storage.codecs import SphereCodec


class TestAbstractContract:
    def test_unimplemented_methods_raise(self):
        ext = GiSTExtension(3)
        with pytest.raises(NotImplementedError):
            ext.pred_for_keys(np.zeros((2, 3)))
        with pytest.raises(NotImplementedError):
            ext.penalty(None, np.zeros(3))
        with pytest.raises(NotImplementedError):
            ext.min_dist(None, np.zeros(3))
        with pytest.raises(NotImplementedError):
            ext.routing_point(None)

    def test_default_config_is_empty(self):
        assert GiSTExtension(2).config() == {}
        assert RTreeExtension(2).config() == {}

    def test_default_refine_is_identity(self):
        ext = RTreeExtension(2)
        assert not ext.has_refinement
        assert ext.refine_dist(None, np.zeros(2), 3.5) == 3.5


class TestDefaultBatchMethods:
    def _node(self, preds, codec):
        return Node.from_entries(
            1, 1, [IndexEntry(p, i) for i, p in enumerate(preds)], codec)

    def test_default_min_dists_node_matches_scalar(self):
        """The loop fallback must agree with per-pred min_dist."""

        class MinimalSphereExt(GiSTExtension):
            name = "minimal"

            def min_dist(self, pred, q):
                return pred.min_dist(q)

        ext = MinimalSphereExt(2)
        preds = [Sphere([float(i), 0.0], 0.5) for i in range(8)]
        node = self._node(preds, SphereCodec(2))
        q = np.array([3.3, 1.0])
        batch = ext.min_dists_node(node, q)
        assert np.allclose(batch, [p.min_dist(q) for p in preds])

    def test_default_penalties_node_matches_scalar(self):
        class MinimalPenaltyExt(GiSTExtension):
            name = "minimal"

            def penalty(self, pred, key):
                return float(np.linalg.norm(pred.center - key))

        ext = MinimalPenaltyExt(2)
        preds = [Sphere([float(i), 0.0], 0.5) for i in range(6)]
        node = self._node(preds, SphereCodec(2))
        key = np.array([2.7, 0.0])
        batch = ext.penalties_node(node, key)
        assert np.allclose(batch,
                           [ext.penalty(p, key) for p in preds])

    def test_vectorized_overrides_agree_with_defaults(self):
        """R-tree and SS-tree fast paths equal the generic loop."""
        rng = np.random.default_rng(0)
        for ext, preds in (
            (RTreeExtension(3),
             [Rect.from_points(rng.normal(size=(4, 3)))
              for _ in range(12)]),
            (SSTreeExtension(3),
             [Sphere(rng.normal(size=3), abs(rng.normal()) + 0.1)
              for _ in range(12)]),
        ):
            node = self._node(preds, ext.pred_codec())
            key = rng.normal(size=3)
            fast = ext.penalties_node(node, key)
            slow = np.array([ext.penalty(p, key) for p in preds])
            # Same argmin even if tie-break epsilons differ slightly.
            assert int(np.argmin(fast)) == int(np.argmin(slow))
            assert np.allclose(fast, slow, rtol=1e-6, atol=1e-9)

    def test_pred_for_node_dispatches_on_level(self):
        from repro.gist.entry import LeafEntry
        ext = RTreeExtension(2)
        leaf = Node.from_entries(1, 0, [LeafEntry(np.array([0.0, 0.0]), 0),
                                        LeafEntry(np.array([2.0, 2.0]), 1)])
        inner = Node.from_entries(
            2, 1, [IndexEntry(Rect([0.0, 0.0], [1.0, 1.0]), 1)],
            ext.pred_codec())
        assert ext.pred_for_node(leaf) == Rect([0.0, 0.0], [2.0, 2.0])
        assert ext.pred_for_node(inner) == Rect([0.0, 0.0], [1.0, 1.0])
