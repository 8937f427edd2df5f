"""The SS-tree access method [White & Jain 96] as a GiST extension.

Bounding spheres as predicates: centers at (weighted) centroids, radii
covering all data beneath.  The paper finds the SS-tree's spherical BPs
interact badly with STR's rectangular tiling — its excess coverage loss
is the worst of the three traditional AMs (Figures 7 and 8).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.ams.splits import variance_split
from repro.geometry import Sphere
from repro.gist.extension import GiSTExtension
from repro.gist.nn import slack
from repro.gist.node import Node
from repro.storage.codecs import SphereCodec


def sphere_bounds(q: np.ndarray, centers: np.ndarray,
                  radii: np.ndarray) -> np.ndarray:
    """Lower bounds from ``q`` to stacked spheres.  ``gap - radius``
    rounds with an error that scales with ``gap + radius``, so it is
    lowered by the slack times that sum (DESIGN.md section 7)."""
    gaps = np.sqrt(((centers - q) ** 2).sum(axis=1))
    return np.maximum(gaps - radii - slack(len(q)) * (gaps + radii), 0.0)


class SSTreeExtension(GiSTExtension):
    """SS-tree behaviour on :class:`~repro.geometry.Sphere` BPs."""

    name = "sstree"

    # -- predicate construction --------------------------------------------

    def pred_for_keys(self, keys: np.ndarray) -> Sphere:
        return Sphere.from_points(keys)

    def pred_for_preds(self, preds: Sequence[Sphere]) -> Sphere:
        return Sphere.from_spheres(list(preds))

    # -- algebra ---------------------------------------------------------------

    def contains(self, pred: Sphere, point) -> bool:
        return pred.contains_point(point)

    def covers_pred(self, parent_pred: Sphere, child_pred: Sphere) -> bool:
        return parent_pred.contains_sphere(child_pred)

    # -- incremental adjust ----------------------------------------------------

    def adjust_pred_insert(self, pred: Sphere, key: np.ndarray):
        # No tolerance, unlike contains_point: any key past the computed
        # surface widens the sphere (DESIGN.md section 7).
        key = np.asarray(key, dtype=np.float64)
        gap = float(np.linalg.norm(key - pred.center))
        if gap <= pred.radius:
            return pred
        # Smallest ball covering ball and point: slide the center toward
        # the key just far enough that both surfaces touch the boundary.
        new_r = (gap + pred.radius) / 2.0
        center = pred.center + (key - pred.center) * ((new_r - pred.radius)
                                                     / gap)
        return Sphere(center, new_r)

    def adjust_pred_cover(self, pred: Sphere, child_pred: Sphere):
        gap = float(np.linalg.norm(child_pred.center - pred.center))
        if gap + child_pred.radius <= pred.radius:
            return pred
        return Sphere.from_spheres([pred, child_pred])

    def penalty(self, pred: Sphere, key: np.ndarray) -> float:
        # SS-tree routes to the subtree with the closest centroid.
        return float(np.linalg.norm(pred.center - key))

    def _sphere_params(self, node: Node) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked ``(centers, radii)``, memoized on the node: column
        slices of its predicate block."""
        def build() -> Tuple[np.ndarray, np.ndarray]:
            block = node.pred_block()
            return block[:, :self.dim], block[:, self.dim]
        return node.cached("sphere_params", build)

    def penalties_node(self, node: Node, q: np.ndarray) -> np.ndarray:
        centers, _ = self._sphere_params(node)
        return np.sqrt(((centers - q) ** 2).sum(axis=1))

    def pick_split(self, entries: List, level: int,
                   min_entries: int) -> Tuple[List, List]:
        if level == 0:
            centers = np.stack([e.key for e in entries])
        else:
            centers = np.stack([e.pred.center for e in entries])
        return variance_split(entries, centers, min_entries)

    def routing_point(self, pred: Sphere) -> np.ndarray:
        return pred.center

    # -- distances ---------------------------------------------------------------

    def min_dist(self, pred: Sphere, q: np.ndarray) -> float:
        return float(sphere_bounds(q, pred.center[None], pred.radius)[0])

    def min_dists_node(self, node: Node, q: np.ndarray) -> np.ndarray:
        return sphere_bounds(q, *self._sphere_params(node))

    # -- storage --------------------------------------------------------------------

    def pred_codec(self) -> SphereCodec:
        return SphereCodec(self.dim)
