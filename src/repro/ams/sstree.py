"""The SS-tree access method [White & Jain 96] as a GiST extension.

Bounding spheres as predicates: centers at (weighted) centroids, radii
covering all data beneath.  The paper finds the SS-tree's spherical BPs
interact badly with STR's rectangular tiling — its excess coverage loss
is the worst of the three traditional AMs (Figures 7 and 8).
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

import numpy as np

from repro.ams.splits import variance_split
from repro.geometry import Sphere
from repro.gist.extension import GiSTExtension, Tokens
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


def spheres_contain(point: np.ndarray, centers: np.ndarray,
                    radii: np.ndarray) -> np.ndarray:
    """Which stacked spheres hold ``point``, tolerating float rounding
    at the surface (``Sphere.contains_point``'s rule): a point used to
    *build* a sphere always tests as contained."""
    gaps = np.sqrt(((np.asarray(point, dtype=np.float64) - centers) ** 2)
                   .sum(axis=1))
    return gaps <= radii * (1 + 1e-12) + 1e-12


def covering_sphere(centers: np.ndarray, radii: np.ndarray) -> Sphere:
    """:meth:`Sphere.from_spheres` of stacked ``(centers, radii)``."""
    return Sphere.from_spheres([Sphere(c, r) for c, r in zip(centers, radii)])


def grown_sphere(center: np.ndarray, radius: float, key: np.ndarray
                 ) -> Any:
    """The smallest ball covering a ball and ``key``, as ``(center,
    radius)``; None when the ball already holds ``key`` (no tolerance,
    unlike :func:`spheres_contain`: any key past the computed surface
    widens the ball, DESIGN.md section 7)."""
    gap = float(np.linalg.norm(key - center))
    if gap <= radius:
        return None
    # Slide the center toward the key just far enough that both
    # surfaces touch the boundary.
    new_r = (gap + radius) / 2.0
    return center + (key - center) * ((new_r - radius) / gap), new_r


def _row(sphere: Sphere) -> np.ndarray:
    """A sphere as its row ``[center, radius]``."""
    return np.append(sphere.center, sphere.radius)


class SSTreeExtension(GiSTExtension):
    """SS-tree behaviour on sphere rows ``[center, radius]``."""

    name = "sstree"

    # -- predicate construction --------------------------------------------

    def preds_for_nodes(self, nodes: Sequence[Node],
                        tokens: Tokens = None) -> np.ndarray:
        return np.stack([
            _row(Sphere.from_points(node.keys_array()) if node.is_leaf
                 else covering_sphere(*self._sphere_params(node)))
            for node in nodes])

    # -- algebra ---------------------------------------------------------------

    def contains_node(self, node: Node, point: np.ndarray) -> np.ndarray:
        return spheres_contain(point, *self._sphere_params(node))

    def covers(self, row: np.ndarray, child_row: np.ndarray) -> bool:
        gap = float(np.linalg.norm(child_row[:self.dim] - row[:self.dim]))
        return bool(gap + child_row[self.dim]
                    <= row[self.dim] * (1 + 1e-12) + 1e-12)

    # -- incremental adjust ----------------------------------------------------

    def widen_key(self, row: np.ndarray, key: np.ndarray) -> Any:
        grown = grown_sphere(row[:self.dim], float(row[self.dim]),
                             np.asarray(key, dtype=np.float64))
        return row if grown is None else np.append(*grown)

    def widen(self, row: np.ndarray, child_row: np.ndarray) -> Any:
        gap = float(np.linalg.norm(child_row[:self.dim] - row[:self.dim]))
        if gap + child_row[self.dim] <= row[self.dim]:
            return row
        pair = np.stack((row, child_row))
        return _row(covering_sphere(pair[:, :self.dim], pair[:, self.dim]))

    def _sphere_params(self, node: Node) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked ``(centers, radii)``, memoized on the node: column
        slices of its predicate block."""
        def build() -> Tuple[np.ndarray, np.ndarray]:
            block = node.pred_block()
            return block[:, :self.dim], block[:, self.dim]
        return node.cached("sphere_params", build)

    def penalties_node(self, node: Node, q: np.ndarray) -> np.ndarray:
        # SS-tree routes to the subtree with the closest centroid.
        centers, _ = self._sphere_params(node)
        return np.sqrt(((centers - q) ** 2).sum(axis=1))

    def pick_split(self, node: Node, min_entries: int) -> Tuple[Any, Any]:
        centers = node.keys_array() if node.is_leaf \
            else self._sphere_params(node)[0]
        return variance_split(centers, min_entries)

    def routing_points(self, block: np.ndarray) -> np.ndarray:
        return block[:, :self.dim]

    # -- distances ---------------------------------------------------------------

    def min_dists_node(self, node: Node, q: np.ndarray) -> np.ndarray:
        return sphere_bounds(q, *self._sphere_params(node))

    # -- storage --------------------------------------------------------------------

    def pred_codec(self) -> SphereCodec:
        return SphereCodec(self.dim)
