"""The SR-tree access method [Katayama & Satoh 97] as a GiST extension.

Each predicate stores an MBR *and* a bounding sphere; the covered region
is their intersection, so the query distance is the larger of the two
component distances.  As in the original SR-tree, the stored sphere
radius is capped by the farthest MBR corner, which is what lets the
SR-tree shave a little leaf-level excess coverage off the R-tree
(paper Figures 7-8), at the price of a 70% larger BP.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

import numpy as np

from repro.ams.splits import quadratic_split
from repro.ams.sstree import (covering_sphere, grown_sphere, points_sphere,
                              sphere_bounds, spheres_contain)
from repro.geometry.rect import min_dists_to_rects, rects_contain_point
from repro.gist.extension import GiSTExtension, Tokens
from repro.gist.node import Node
from repro.storage.codecs import RectSphereCodec


def _max_dist(point: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Distance from ``point`` to the farthest corner of ``[lo, hi]``."""
    delta = np.maximum(np.abs(point - lo), np.abs(point - hi))
    return float(np.linalg.norm(delta))


def _sr_row(lo: np.ndarray, hi: np.ndarray, center: np.ndarray,
            radius: float) -> np.ndarray:
    """An SR row, the covering radius capped by the farthest rect
    corner (the SR-tree rule)."""
    return np.concatenate((lo, hi, center,
                           [min(radius, _max_dist(center, lo, hi))]))


class SRTreeExtension(GiSTExtension):
    """SR-tree behaviour on rows ``[lo, hi, center, radius]``: the
    intersection of a rect and a sphere."""

    name = "srtree"

    # -- predicate construction --------------------------------------------

    def preds_for_nodes(self, nodes: Sequence[Node],
                        tokens: Tokens = None) -> np.ndarray:
        rows = []
        for node in nodes:
            if node.is_leaf:
                keys = node.keys_array()
                lo, hi = keys.min(axis=0), keys.max(axis=0)
                center, radius = points_sphere(keys)
            else:
                los, his, centers, radii = self._sr_params(node)
                lo = np.minimum.reduce(los)
                hi = np.maximum.reduce(his)
                center, radius = covering_sphere(centers, radii)
            rows.append(_sr_row(lo, hi, center, radius))
        return np.stack(rows)

    # -- algebra ---------------------------------------------------------------

    def contains_node(self, node: Node, point: np.ndarray) -> np.ndarray:
        lo, hi, centers, radii = self._sr_params(node)
        return (rects_contain_point(point, lo, hi)
                & spheres_contain(point, centers, radii))

    def _reach(self, row: np.ndarray, child_row: np.ndarray) -> float:
        """How far the child's region, inside both its rect and its
        sphere, reaches from the parent's center: the nearer of the two
        limits."""
        d = self.dim
        center = row[2 * d:3 * d]
        gap = float(np.linalg.norm(child_row[2 * d:3 * d] - center))
        return min(_max_dist(center, child_row[:d], child_row[d:2 * d]),
                   gap + child_row[3 * d])

    def _holds_rect(self, row: np.ndarray, child_row: np.ndarray) -> bool:
        d = self.dim
        return bool(np.all(child_row[:d] >= row[:d])
                    and np.all(child_row[d:2 * d] <= row[d:2 * d]))

    def covers(self, row: np.ndarray, child_row: np.ndarray) -> bool:
        return bool(self._holds_rect(row, child_row)
                    and self._reach(row, child_row)
                    <= row[3 * self.dim] * (1 + 1e-12) + 1e-12)

    # -- incremental adjust ----------------------------------------------------

    def widen_key(self, row: np.ndarray, key: np.ndarray) -> Any:
        d = self.dim
        key = np.asarray(key, dtype=np.float64)
        lo, hi = row[:d], row[d:2 * d]
        grown = grown_sphere(row[2 * d:3 * d], float(row[3 * d]), key)
        if grown is None and np.all(key >= lo) and np.all(key <= hi):
            return row
        center, radius = (row[2 * d:3 * d], float(row[3 * d])) \
            if grown is None else grown
        # Re-capping is safe: the key lies inside the widened rect, so
        # the farthest corner bounds its distance, and the old sphere's
        # covered data all sits inside the old rect, hence the new one.
        return _sr_row(np.minimum(lo, key), np.maximum(hi, key), center,
                       radius)

    def widen(self, row: np.ndarray, child_row: np.ndarray) -> Any:
        # No tolerance, unlike covers (see the SS-tree's widen_key).
        d = self.dim
        if self._holds_rect(row, child_row) \
                and self._reach(row, child_row) <= row[3 * d]:
            return row
        pair = np.stack((row, child_row))
        center, radius = covering_sphere(pair[:, 2 * d:3 * d],
                                         pair[:, 3 * d])
        # Capping by the widened rect keeps covers true: the child's
        # reach from the new center is bounded both by its own sphere
        # (covered by the union ball) and by its rect's farthest
        # corner, which the cap never undercuts.
        return _sr_row(np.minimum(row[:d], child_row[:d]),
                       np.maximum(row[d:2 * d], child_row[d:2 * d]),
                       center, radius)

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

    def pick_split(self, node: Node, min_entries: int) -> Tuple[Any, Any]:
        if node.is_leaf:
            keys = node.keys_array()
            return quadratic_split(keys, keys, min_entries)
        lo, hi, _, _ = self._sr_params(node)
        return quadratic_split(lo, hi, min_entries)

    def routing_points(self, block: np.ndarray) -> np.ndarray:
        return block[:, 2 * self.dim:3 * self.dim]

    # -- distances ---------------------------------------------------------------

    def min_dists_node(self, node: Node, q: np.ndarray) -> np.ndarray:
        lo, hi, centers, radii = self._sr_params(node)
        return np.maximum(min_dists_to_rects(q, lo, hi),
                          sphere_bounds(q, centers, radii))

    # -- storage --------------------------------------------------------------------

    def pred_codec(self) -> RectSphereCodec:
        return RectSphereCodec(self.dim)
