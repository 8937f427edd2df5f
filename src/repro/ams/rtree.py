"""The R-tree access method [Guttman 84] as a GiST extension.

Minimum bounding rectangles as predicates, least-enlargement insertion
penalty, quadratic split.  This is the baseline the paper bulk-loads with
STR in section 4 and the chassis its custom predicates modify.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

import numpy as np

from repro.ams.splits import quadratic_split
from repro.geometry.rect import min_dists_to_rects, rects_contain_point
from repro.gist.extension import GiSTExtension, Tokens
from repro.gist.node import Node
from repro.storage.codecs import RectCodec


class RTreeExtension(GiSTExtension):
    """Classic R-tree behaviour on MBR rows ``[lo, hi]``.

    Subclasses whose rows extend the MBR (JB/XJB) or derive it (aMAP)
    keep the routing, penalty and split on the row's *footprint*, the
    MBR :meth:`block_bounds` reads.
    """

    name = "rtree"

    # -- predicate construction --------------------------------------------

    def preds_for_nodes(self, nodes: Sequence[Node],
                        tokens: Tokens = None) -> np.ndarray:
        return np.stack([np.concatenate(self._bounds(node))
                         for node in nodes])

    def _bounds(self, node: Node) -> Tuple[np.ndarray, np.ndarray]:
        """The MBR of a node's keys or child footprints."""
        if node.is_leaf:
            keys = node.keys_array()
            return keys.min(axis=0), keys.max(axis=0)
        # Stacked through the node cache, so the bounds matrices built
        # here feed the first queries for free.
        lo, hi = self.node_bounds(node)
        return lo.min(axis=0), hi.max(axis=0)

    # -- algebra ---------------------------------------------------------------

    def contains_node(self, node: Node, point: np.ndarray) -> np.ndarray:
        """Which entries' footprints hold ``point`` (closed boxes)."""
        lo, hi = self.node_bounds(node)
        return rects_contain_point(point, lo, hi)

    def covers(self, row: np.ndarray, child_row: np.ndarray) -> bool:
        return holds_box(row, *self.row_bounds(child_row))

    def row_bounds(self, row: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One row's footprint ``(lo, hi)``."""
        lo, hi = self.block_bounds(row[None])
        return lo[0], hi[0]

    # -- incremental adjust ----------------------------------------------------

    def widen_key(self, row: np.ndarray, key: np.ndarray) -> Any:
        if self.covers_key(row, key):
            return row
        return np.concatenate((np.minimum(row[:self.dim], key),
                               np.maximum(row[self.dim:2 * self.dim], key)))

    def widen(self, row: np.ndarray, child_row: np.ndarray) -> Any:
        lo, hi = self.row_bounds(child_row)
        if holds_box(row, lo, hi):
            return row
        return np.concatenate((np.minimum(row[:self.dim], lo),
                               np.maximum(row[self.dim:2 * self.dim], hi)))

    def node_bounds(self, node: Node) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked footprint ``lo``/``hi`` matrices, memoized on the node:
        column slices of its predicate block (:meth:`block_bounds`)."""
        return node.cached("rect_bounds",
                           lambda: self.block_bounds(node.pred_block()))

    def block_bounds(self, block: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Footprint ``lo``/``hi`` columns of a stacked predicate block
        in this AM's codec layout (the MBR leads; subclasses whose
        footprint is derived override)."""
        return block[:, :self.dim], block[:, self.dim:2 * self.dim]

    def penalties_node(self, node: Node, q: np.ndarray) -> np.ndarray:
        lo, hi = self.node_bounds(node)
        grown_lo = np.minimum(lo, q)
        grown_hi = np.maximum(hi, q)
        grown = np.prod(grown_hi - grown_lo, axis=1)
        growth = grown - np.prod(hi - lo, axis=1)
        # Tie-break by resulting volume, as Guttman prescribes.
        return growth + 1e-9 * grown

    def split_bounds(self, node: Node) -> Tuple[np.ndarray, np.ndarray]:
        """The ``lo``/``hi`` boxes a split partitions: a leaf's keys as
        points, an inner node's footprints."""
        if node.is_leaf:
            keys = node.keys_array()
            return keys, keys
        return self.node_bounds(node)

    def pick_split(self, node: Node, min_entries: int) -> Tuple[Any, Any]:
        return quadratic_split(*self.split_bounds(node), min_entries)

    def routing_points(self, block: np.ndarray) -> np.ndarray:
        lo, hi = self.block_bounds(block)
        return (lo + hi) / 2.0

    # -- distances ---------------------------------------------------------------

    def min_dists_node(self, node: Node, q: np.ndarray) -> np.ndarray:
        return min_dists_to_rects(q, *self.node_bounds(node))

    # -- storage --------------------------------------------------------------------

    def pred_codec(self) -> RectCodec:
        return RectCodec(self.dim)


def holds_box(row: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Does the MBR leading ``row`` hold the closed box ``[lo, hi]``?"""
    dim = len(lo)
    return bool(np.all(lo >= row[:dim]) and np.all(hi <= row[dim:2 * dim]))
