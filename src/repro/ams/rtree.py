"""The R-tree access method [Guttman 84] as a GiST extension.

Minimum bounding rectangles as predicates, least-enlargement insertion
penalty, quadratic split.  This is the baseline the paper bulk-loads with
STR in section 4 and the chassis its custom predicates modify.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.ams.splits import quadratic_split
from repro.geometry import Rect
from repro.geometry.rect import min_dists_to_rects, rects_contain_point
from repro.gist.entry import LeafEntry
from repro.gist.extension import GiSTExtension
from repro.gist.node import Node
from repro.storage.codecs import RectCodec


def entry_rect(entry, leaf: bool, footprint=None) -> Rect:
    """The rectangle an entry occupies for split/penalty purposes."""
    if leaf:
        return Rect.point(entry.key)
    return footprint(entry.pred) if footprint else entry.pred


class RTreeExtension(GiSTExtension):
    """Classic R-tree behaviour on :class:`~repro.geometry.Rect` BPs."""

    name = "rtree"

    # -- predicate construction --------------------------------------------

    def pred_for_keys(self, keys: np.ndarray) -> Rect:
        return Rect.from_points(keys)

    def pred_for_preds(self, preds: Sequence[Rect]) -> Rect:
        return Rect.from_rects(self.footprints(preds))

    def footprints(self, preds: Sequence) -> List[Rect]:
        """Rect footprints of predicates (subclasses override)."""
        return list(preds)

    def footprint(self, pred) -> Rect:
        return pred

    # -- algebra ---------------------------------------------------------------

    def consistent(self, pred, query_rect) -> bool:
        return self.footprint(pred).intersects(query_rect)

    def contains(self, pred, point) -> bool:
        return pred.contains_point(point)

    def contains_node(self, node: Node, point: np.ndarray) -> np.ndarray:
        """:meth:`contains` for every entry, from the footprint bounds
        (the closed-box rule of ``Rect.contains_point``)."""
        lo, hi = self.node_bounds(node)
        return rects_contain_point(point, lo, hi)

    def covers_pred(self, parent_pred, child_pred) -> bool:
        return parent_pred.contains_rect(self.footprint(child_pred))

    # -- incremental adjust ----------------------------------------------------

    def adjust_pred_insert(self, pred: Rect, key: np.ndarray):
        if pred.contains_point(key):
            return pred
        return pred.union_point(key)

    def adjust_pred_cover(self, pred: Rect, child_pred: Rect):
        child = self.footprint(child_pred)
        if pred.contains_rect(child):
            return pred
        return pred.union(child)

    def penalty(self, pred, key: np.ndarray) -> float:
        rect = self.footprint(pred)
        enlarged = rect.union_point(key)
        growth = enlarged.volume() - rect.volume()
        # Tie-break by resulting volume, as Guttman prescribes.
        return growth + 1e-9 * enlarged.volume()

    def node_bounds(self, node: Node) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked footprint ``lo``/``hi`` matrices, memoized on the node:
        column slices of its predicate block (:meth:`block_bounds`); no
        predicate object is built."""
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
        return growth + 1e-9 * grown

    def pick_split(self, entries: List, level: int,
                   min_entries: int) -> Tuple[List, List]:
        leaf = level == 0
        rects = [entry_rect(e, leaf, self.footprint) for e in entries]
        return quadratic_split(entries, rects, min_entries)

    def routing_point(self, pred) -> np.ndarray:
        return self.footprint(pred).center

    def routing_points_multi(self, preds: Sequence) -> np.ndarray:
        lo, hi = _stack_bounds(self.footprints(preds))
        return (lo + hi) / 2.0

    def pred_for_node_at(self, node: Node, token) -> Rect:
        if node.is_leaf:
            return self.pred_for_keys_at(node.keys_array(), token)
        # Stack the child footprints through the node cache, so the
        # bounds matrices built here feed the first queries for free.
        lo, hi = self.node_bounds(node)
        return Rect(lo.min(axis=0), hi.max(axis=0))

    # -- distances ---------------------------------------------------------------

    def min_dist(self, pred, q: np.ndarray) -> float:
        return self.footprint(pred).min_dist(q)

    def min_dists_node(self, node: Node, q: np.ndarray) -> np.ndarray:
        return min_dists_to_rects(q, *self.node_bounds(node))

    # -- storage --------------------------------------------------------------------

    def pred_codec(self) -> RectCodec:
        return RectCodec(self.dim)


def _stack_bounds(rects: Sequence[Rect]) -> Tuple[np.ndarray, np.ndarray]:
    return (np.stack([r.lo for r in rects]),
            np.stack([r.hi for r in rects]))
