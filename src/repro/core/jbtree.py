"""The JB ("Jagged Bites") access method (paper section 5.2).

A JB predicate is an MBR plus the largest safe rectangular bite at
*every* corner, constructed with the nibbling heuristic of the paper's
Figure 13 (:func:`repro.geometry.bites.carve_bites`).  With ``2**D``
corners the predicate costs ``(2 + 2**D) * D`` numbers (Table 3), which
at D=5 is 8.5x the MBR — the price that pushed the paper's JB tree from
height 3 to height 6 while driving leaf-level excess coverage to nearly
zero.

Distances are two-tier: the plain MBR distance is the cheap enqueue
bound and the bite-aware distance the lazy refinement (see
:mod:`repro.gist.nn`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.ams.rtree import RTreeExtension
from repro.geometry import BittenRect, Rect
from repro.geometry.bites import DEFAULT_MAX_STEPS
from repro.gist.node import Node
from repro.storage.codecs import JBCodec


class JBExtension(RTreeExtension):
    """R-tree chassis with full Jagged-Bites bounding predicates."""

    name = "jb"

    #: bites kept per predicate; None keeps every corner's bite (JB).
    max_bites: Optional[int] = None

    has_refinement = True

    def __init__(self, dim: int, max_steps: int = DEFAULT_MAX_STEPS,
                 bite_method: str = "sweep", split_method: str = "gap"):
        """``bite_method``: ``"sweep"`` (the improved construction the
        paper's footnote 7 reserves for its final version, the default),
        ``"nibble"`` (the Figure 13 heuristic exactly), ``"both"``, or
        ``"probe"`` (the section-8 workload-oriented construction).

        ``split_method``: ``"gap"`` (the bite-friendly largest-void
        split of :mod:`repro.core.jb_split`, future work #1) or
        ``"quadratic"`` (inherit the R-tree split)."""
        super().__init__(dim)
        self.max_steps = max_steps
        self.bite_method = bite_method
        if split_method not in ("gap", "quadratic"):
            raise ValueError(f"unknown split method {split_method!r}")
        self.split_method = split_method

    # -- predicate construction --------------------------------------------

    def pred_for_keys(self, keys: np.ndarray) -> BittenRect:
        return BittenRect.from_points(keys, max_bites=self.max_bites,
                                      max_steps=self.max_steps,
                                      method=self.bite_method)

    def pred_for_preds(self, preds: Sequence[BittenRect]) -> BittenRect:
        return BittenRect.from_rects(self.footprints(preds),
                                     max_bites=self.max_bites,
                                     max_steps=self.max_steps,
                                     method=self.bite_method)

    def pred_for_node(self, node: Node) -> BittenRect:
        # An inner node carves from its bounds matrices, which a
        # block-backed node slices from its page body: no predicate
        # object is decoded.
        return self.pred_for_node_at(node, None)

    # -- bulk-load construction hooks ---------------------------------------

    def pred_for_node_at(self, node: Node, token) -> BittenRect:
        if node.is_leaf:
            return self.pred_for_keys_at(node.keys_array(), token)
        # Carve straight off the node's memoized child-bounds matrices:
        # no Rect re-stacking, and the cache feeds the first queries.
        los, his = self.node_bounds(node)
        return BittenRect.from_rect_bounds(los, his,
                                           max_bites=self.max_bites,
                                           max_steps=self.max_steps,
                                           method=self.bite_method)

    def preds_for_nodes(self, nodes: Sequence[Node], tokens) -> List:
        """Carve whole sibling groups in one sweep kernel.

        Nodes with equal entry counts batch into a single
        ``(G, n, dim)`` carve; predicates depend only on each node's own
        contents, so this grouping yields bit-identical results to
        carving each node alone.
        """
        from repro.geometry.bites import bitten_rects_multi
        preds: List = [None] * len(nodes)
        groups: dict = {}
        for i, node in enumerate(nodes):
            groups.setdefault((node.is_leaf, len(node)), []).append(i)
        for (leaf, _count), idxs in groups.items():
            if leaf:
                data = {"points": np.stack(
                    [nodes[i].keys_array() for i in idxs])}
            else:
                bounds = [self.node_bounds(nodes[i]) for i in idxs]
                data = {"rect_los": np.stack([b[0] for b in bounds]),
                        "rect_his": np.stack([b[1] for b in bounds])}
            built = bitten_rects_multi(max_bites=self.max_bites,
                                       max_steps=self.max_steps,
                                       method=self.bite_method, **data)
            for i, pred in zip(idxs, built):
                preds[i] = pred
        return preds

    def footprints(self, preds: Sequence[BittenRect]) -> List[Rect]:
        return [p.rect for p in preds]

    def footprint(self, pred: BittenRect) -> Rect:
        return pred.rect

    # -- algebra ---------------------------------------------------------------

    def contains(self, pred: BittenRect, point) -> bool:
        return pred.contains_point(point)

    def contains_node(self, node: Node, point: np.ndarray) -> np.ndarray:
        """:meth:`contains` for every entry: inside the MBR and outside
        every half-open bite of the node's :meth:`bite_pack`."""
        inside = super().contains_node(node, point)
        blo, bhi, blow, counts, _ = self.bite_pack(node)
        owners = np.repeat(np.arange(len(counts)), counts)
        inside[owners[_in_bites(point, blo, bhi, blow)]] = False
        return inside

    def covers_pred(self, parent_pred: BittenRect,
                    child_pred: BittenRect) -> bool:
        return parent_pred.contains_rect(self.footprint(child_pred))

    # -- incremental adjust ----------------------------------------------------
    #
    # Online inserts widen the MBR and *invalidate* bites rather than
    # re-carving: a bite survives only if its anchoring MBR corner did
    # not move (the codec re-anchors bites to the stored rect's corners
    # on decode, so a moved corner would silently translate the bite)
    # and it still avoids the new key / child rect.  Dropping bites only
    # grows the covered region, so the widened predicate admits
    # everything the old one did — and XJB's bite budget is trivially
    # respected.  Bites are re-carved from scratch only when the node
    # splits (a full recompute).

    def _surviving_bites(self, pred: BittenRect, rect: Rect):
        old = pred.rect
        return [b for b in pred.bites
                if np.array_equal(rect.corner(b.corner_mask),
                                  old.corner(b.corner_mask))]

    def adjust_pred_insert(self, pred: BittenRect, key: np.ndarray):
        if pred.contains_point(key):
            return pred
        rect = pred.rect.union_point(key)
        bites = [b for b in self._surviving_bites(pred, rect)
                 if not b.removes_point(key)]
        return BittenRect(rect, bites)

    def adjust_pred_cover(self, pred: BittenRect, child_pred: BittenRect):
        child = self.footprint(child_pred)
        if pred.contains_rect(child):
            return pred
        rect = pred.rect.union(child)
        bites = [b for b in self._surviving_bites(pred, rect)
                 if not b.blocks_rect(child.lo, child.hi)]
        return BittenRect(rect, bites)

    def pick_split(self, entries, level: int, min_entries: int):
        if self.split_method == "quadratic":
            return super().pick_split(entries, level, min_entries)
        from repro.ams.rtree import entry_rect
        from repro.core.jb_split import gap_split
        leaf = level == 0
        rects = [entry_rect(e, leaf, self.footprint) for e in entries]
        return gap_split(entries, rects, min_entries)

    # -- distances ---------------------------------------------------------------

    def min_dist(self, pred: BittenRect, q: np.ndarray) -> float:
        return pred.min_dist(q)

    # min_dists_node is inherited from RTreeExtension: it uses the cached
    # MBR bounds as the cheap lower bound; refine_dist tightens lazily.

    def refine_dist(self, pred: BittenRect, q: np.ndarray,
                    lower_bound: float) -> float:
        return max(lower_bound, pred.min_dist(q))

    def bite_pack(self, node: Node):
        """All entries' bites stacked flat, memoized on the node.

        Returns ``(blo, bhi, blow, counts, offsets)``: ``(T, dim)`` bite
        bounds / side flags for the ``T`` bites across the node, with
        entry ``i`` owning the slice ``offsets[i]:offsets[i+1]``.  Built
        from the predicate block by the codec's
        :meth:`~repro.storage.codecs.JBCodec.bite_rows`, the arithmetic
        ``decode`` uses, so it equals the pack stacked from decoded
        predicates bit for bit, in the same entry-major slot order.
        """
        def build():
            _, _, blo, bhi, low, keep = self.pred_codec().bite_rows(
                node.pred_block())
            counts = keep.sum(axis=1).astype(np.intp)
            offsets = np.concatenate(([0], np.cumsum(counts)))
            return blo[keep], bhi[keep], low[keep], counts, offsets
        return node.cached("jb_bites", build)

    def refine_dists_node(self, node: Node, queries: np.ndarray,
                          dists: np.ndarray) -> np.ndarray:
        """Vectorized bite-aware refinement screen for a query block.

        :meth:`BittenRect.min_dist`'s box search terminates on its very
        first pop — returning the plain MBR box distance — whenever the
        query's clamp point onto the MBR lies outside every bite.  That
        dominant case is decided here for all ``queries × entries`` at
        once; the refined bound is then ``max(cheap, box)`` exactly as
        the scalar path computes it (same ``(delta*delta).sum`` kernel,
        so bit-identical).  Cells where the clamp lands inside a bite,
        and entries with no bites (whose scalar path takes a different
        float route through ``np.linalg.norm``), stay NaN for lazy
        per-pair :meth:`refine_dist` fallback.
        """
        blo, bhi, blow, counts, offsets = self.bite_pack(node)
        out = np.full(dists.shape, np.nan)
        nz = np.nonzero(counts)[0]
        if len(nz) == 0:
            return out
        lo, hi = self.node_bounds(node)
        q = queries[:, None, :]
        delta = np.maximum(np.maximum(lo - q, q - hi), 0.0)
        box = np.sqrt((delta * delta).sum(axis=-1))
        ent = np.repeat(np.arange(len(counts)), counts)
        inside = _in_bites(np.clip(q, lo, hi)[:, ent, :], blo, bhi, blow)
        # offsets[nz] is strictly increasing (zero-count entries add
        # nothing to the cumsum), so each reduceat segment is exactly
        # one bitten entry's slice.
        clear = ~np.logical_or.reduceat(inside, offsets[nz], axis=1)
        mask = np.zeros(dists.shape, dtype=bool)
        mask[:, nz] = clear
        out[mask] = np.maximum(dists, box)[mask]
        return out

    # -- storage --------------------------------------------------------------------

    def pred_codec(self) -> JBCodec:
        return JBCodec(self.dim)

    def config(self) -> dict:
        return {"max_steps": self.max_steps,
                "bite_method": self.bite_method,
                "split_method": self.split_method}


def _in_bites(p: np.ndarray, blo: np.ndarray, bhi: np.ndarray,
              blow: np.ndarray) -> np.ndarray:
    """Which stacked half-open bites hold ``p`` (``Bite.removes_point``'s
    rule: closed on the MBR-corner side, open on the inner face), over
    the last axis."""
    return np.all(np.where(blow, (p >= blo) & (p < bhi),
                           (p > blo) & (p <= bhi)), axis=-1)
