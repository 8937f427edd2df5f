"""The SR-tree access method [Katayama & Satoh 97] as a GiST extension.

Each predicate stores an MBR *and* a bounding sphere; the covered region
is their intersection, so the query distance is the larger of the two
component distances.  As in the original SR-tree, the stored sphere
radius is capped by the farthest MBR corner, which is what lets the
SR-tree shave a little leaf-level excess coverage off the R-tree
(paper Figures 7-8), at the price of a 70% larger BP.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.ams.splits import quadratic_split
from repro.geometry import Rect, Sphere
from repro.geometry.rect import min_dists_to_rects
from repro.geometry.sphere import min_dists_to_spheres
from repro.gist.entry import LeafEntry
from repro.gist.extension import GiSTExtension
from repro.gist.node import Node
from repro.storage.codecs import RectSphereCodec


class SRPred:
    """SR-tree predicate: the intersection of a rect and a sphere."""

    __slots__ = ("rect", "sphere")

    def __init__(self, rect: Rect, sphere: Sphere):
        self.rect = rect
        self.sphere = sphere

    def __iter__(self):
        # Codec compatibility: behaves like the (rect, sphere) tuple.
        yield self.rect
        yield self.sphere

    def __repr__(self) -> str:
        return f"SRPred({self.rect!r}, {self.sphere!r})"


def _capped_sphere(center: np.ndarray, radius: float, rect: Rect) -> Sphere:
    """Cap a covering radius by the farthest rect corner (SR-tree rule)."""
    return Sphere(center, min(radius, rect.max_dist(center)))


class SRTreeExtension(GiSTExtension):
    """SR-tree behaviour on combined rect + sphere BPs."""

    name = "srtree"

    # -- predicate construction --------------------------------------------

    def pred_for_keys(self, keys: np.ndarray) -> SRPred:
        rect = Rect.from_points(keys)
        raw = Sphere.from_points(keys)
        return SRPred(rect, _capped_sphere(raw.center, raw.radius, rect))

    def pred_for_preds(self, preds: Sequence[SRPred]) -> SRPred:
        preds = list(preds)
        rect = Rect.from_rects([p.rect for p in preds])
        raw = Sphere.from_spheres([p.sphere for p in preds])
        return SRPred(rect, _capped_sphere(raw.center, raw.radius, rect))

    # -- algebra ---------------------------------------------------------------

    def consistent(self, pred: SRPred, query_rect) -> bool:
        return (pred.rect.intersects(query_rect)
                and query_rect.min_dist(pred.sphere.center)
                <= pred.sphere.radius)

    def contains(self, pred: SRPred, point) -> bool:
        return (pred.rect.contains_point(point)
                and pred.sphere.contains_point(point))

    def covers_pred(self, parent_pred: SRPred, child_pred: SRPred) -> bool:
        if not parent_pred.rect.contains_rect(child_pred.rect):
            return False
        # The child's region is inside both its rect and its sphere, so
        # its distance from the parent center is bounded by whichever of
        # the two encloses it more tightly from the parent's vantage.
        center = parent_pred.sphere.center
        via_rect = child_pred.rect.max_dist(center)
        gap = float(np.linalg.norm(child_pred.sphere.center - center))
        via_sphere = gap + child_pred.sphere.radius
        reach = min(via_rect, via_sphere)
        return reach <= parent_pred.sphere.radius * (1 + 1e-12) + 1e-12

    # -- incremental adjust ----------------------------------------------------

    def adjust_pred_insert(self, pred: SRPred, key: np.ndarray):
        if self.contains(pred, key):
            return pred
        key = np.asarray(key, dtype=np.float64)
        rect = pred.rect.union_point(key)
        sphere = pred.sphere
        if not sphere.contains_point(key):
            # Smallest ball covering ball and point (see the SS-tree).
            gap = float(np.linalg.norm(key - sphere.center))
            new_r = (gap + sphere.radius) / 2.0
            center = sphere.center + (key - sphere.center) \
                * ((new_r - sphere.radius) / gap)
            sphere = Sphere(center, new_r)
        # Re-capping is safe: the key lies inside the widened rect, so
        # max_dist(center) bounds its distance, and the old sphere's
        # covered data all sits inside the old rect, hence the new one.
        return SRPred(rect, _capped_sphere(sphere.center, sphere.radius,
                                           rect))

    def adjust_pred_cover(self, pred: SRPred, child_pred: SRPred):
        if self.covers_pred(pred, child_pred):
            return pred
        rect = pred.rect.union(child_pred.rect)
        raw = Sphere.from_spheres([pred.sphere, child_pred.sphere])
        # Capping by the widened rect keeps covers_pred true: the
        # child's reach from the new center is bounded both by its own
        # sphere (covered by ``raw``) and by its rect's farthest corner,
        # which the cap never undercuts.
        return SRPred(rect, _capped_sphere(raw.center, raw.radius, rect))

    def penalty(self, pred: SRPred, key: np.ndarray) -> float:
        return float(np.linalg.norm(pred.sphere.center - key))

    def _sr_params(self, node: Node) -> Tuple[np.ndarray, ...]:
        """Stacked ``(lo, hi, centers, radii)``, memoized on the node:
        column slices of its predicate block."""
        def build() -> Tuple[np.ndarray, ...]:
            block, d = node.pred_block(), self.dim
            return (block[:, :d], block[:, d:2 * d],
                    block[:, 2 * d:3 * d], block[:, 3 * d])
        return node.cached("sr_params", build)

    def penalties_node(self, node: Node, q: np.ndarray) -> np.ndarray:
        centers = self._sr_params(node)[2]
        return np.sqrt(((centers - q) ** 2).sum(axis=1))

    def pick_split(self, entries: List, level: int,
                   min_entries: int) -> Tuple[List, List]:
        if level == 0:
            rects = [Rect.point(e.key) for e in entries]
        else:
            rects = [e.pred.rect for e in entries]
        return quadratic_split(entries, rects, min_entries)

    def routing_point(self, pred: SRPred) -> np.ndarray:
        return pred.sphere.center

    def routing_points_multi(self, preds: Sequence[SRPred]) -> np.ndarray:
        return np.stack([p.sphere.center for p in preds])

    # -- distances ---------------------------------------------------------------

    def min_dist(self, pred: SRPred, q: np.ndarray) -> float:
        return max(pred.rect.min_dist(q), pred.sphere.min_dist(q))

    def min_dists_node(self, node: Node, q: np.ndarray) -> np.ndarray:
        lo, hi, centers, radii = self._sr_params(node)
        return np.maximum(min_dists_to_rects(q, lo, hi),
                          min_dists_to_spheres(q, centers, radii))

    # -- storage --------------------------------------------------------------------

    def pred_codec(self) -> "_SRPredCodec":
        return _SRPredCodec(self.dim)


class _SRPredCodec(RectSphereCodec):
    """RectSphereCodec that decodes into :class:`SRPred` objects."""

    def decode(self, data: bytes) -> SRPred:
        rect, sphere = super().decode(data)
        return SRPred(rect, sphere)
