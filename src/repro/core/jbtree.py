"""The JB ("Jagged Bites") access method (paper section 5.2).

A JB predicate is an MBR plus the largest safe rectangular bite at
*every* corner, carved as arrays by
:func:`repro.geometry.bites.carve_rows` (the paper's Figure 13 nibble,
or the default sweep its footnote 7 anticipates).  With ``2**D``
corners the predicate costs ``(2 + 2**D) * D`` numbers (Table 3), which
at D=5 is 8.5x the MBR — the price that pushed the paper's JB tree from
height 3 to height 6 while driving leaf-level excess coverage to nearly
zero.

Distances are two-tier: the plain MBR distance is the cheap enqueue
bound and the bite-aware distance the lazy refinement (see
:mod:`repro.gist.nn`).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.ams.rtree import RTreeExtension, holds_box
from repro.core.jb_split import gap_split
from repro.geometry.bites import (BITE_METHODS, DEFAULT_MAX_STEPS,
                                  bitten_min_dist, carve_rows, in_bites)
from repro.gist.extension import Tokens
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
        ``"nibble"`` (the Figure 13 heuristic exactly) or ``"probe"``
        (the section-8 workload-oriented construction).

        ``split_method``: ``"gap"`` (the bite-friendly largest-void
        split of :mod:`repro.core.jb_split`, future work #1) or
        ``"quadratic"`` (inherit the R-tree split)."""
        super().__init__(dim)
        self.max_steps = max_steps
        if bite_method not in BITE_METHODS:
            raise ValueError(f"unknown bite method {bite_method!r}: use "
                             f"{', '.join(map(repr, BITE_METHODS))}")
        self.bite_method = bite_method
        if split_method not in ("gap", "quadratic"):
            raise ValueError(f"unknown split method {split_method!r}")
        self.split_method = split_method

    # -- predicate construction --------------------------------------------

    def preds_for_nodes(self, nodes: Sequence[Node],
                        tokens: Tokens = None) -> np.ndarray:
        """Carve whole sibling groups in one :func:`carve_rows` call.

        Nodes with equal entry counts batch into a single
        ``(G, n, dim)`` carve, which the codec writes as one block;
        predicates depend only on each node's own contents, so this
        grouping yields bit-identical rows to carving each node alone.
        An inner node carves off its memoized child bounds, which the
        first queries then reuse.
        """
        codec = self.pred_codec()
        rows = np.empty((len(nodes), codec.numbers))
        groups: dict = {}
        for i, node in enumerate(nodes):
            groups.setdefault((node.is_leaf, len(node)), []).append(i)
        for (leaf, _count), idxs in groups.items():
            if leaf:
                los = his = np.stack([nodes[i].keys_array() for i in idxs])
            else:
                bounds = [self.node_bounds(nodes[i]) for i in idxs]
                los = np.stack([b[0] for b in bounds])
                his = np.stack([b[1] for b in bounds])
            rows[idxs] = codec.write(*carve_rows(
                los, his, self.max_bites, self.max_steps, self.bite_method))
        return rows

    # -- algebra ---------------------------------------------------------------

    def contains_node(self, node: Node, point: np.ndarray) -> np.ndarray:
        """Which entries hold ``point``: inside the MBR and outside
        every half-open bite of the node's :meth:`bite_pack`."""
        inside = super().contains_node(node, point)
        blo, bhi, blow, counts, _ = self.bite_pack(node)
        owners = np.repeat(np.arange(len(counts)), counts)
        inside[owners[in_bites(point, blo, bhi, blow)]] = False
        return inside

    def covers_key(self, row: np.ndarray, key: np.ndarray) -> bool:
        """:meth:`contains_node`'s rule on one row: inside the MBR and
        outside every bite."""
        if not holds_box(row, key, key):
            return False
        _, _, blo, bhi, blow = self._row_bites(row)
        return not in_bites(key, blo, bhi, blow).any()

    def covers(self, row: np.ndarray, child_row: np.ndarray) -> bool:
        """Does the bitten region hold the child's whole closed MBR?"""
        lo, hi = self.row_bounds(child_row)
        _, _, blo, bhi, blow = self._row_bites(row)
        return holds_box(row, lo, hi) \
            and not _blocks(lo, hi, blo, bhi, blow).any()

    def _row_bites(self, row: np.ndarray) -> Tuple[np.ndarray, ...]:
        """One row's bites: ``(masks, inners, blo, bhi, low_side)``."""
        masks, inners, blo, bhi, low, keep = (
            part[0] for part in self.pred_codec().bite_rows(row[None]))
        return masks[keep], inners[keep], blo[keep], bhi[keep], low[keep]

    # -- incremental adjust ----------------------------------------------------
    #
    # Online inserts widen the MBR and *invalidate* bites rather than
    # re-carving: a bite survives only if its anchoring MBR corner did
    # not move (the codec re-anchors bites to the stored rect's corners
    # when it reads a row, so a moved corner would silently translate
    # the bite)
    # and it still avoids the new key / child rect.  Dropping bites only
    # grows the covered region, so the widened predicate admits
    # everything the old one did — and XJB's bite budget is trivially
    # respected.  Bites are re-carved from scratch only when the node
    # splits (a full recompute).

    def _widened(self, row: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 hit: Any) -> np.ndarray:
        """``row``'s MBR grown over ``[lo, hi]``, keeping the bites whose
        corner stayed put and that ``hit(blo, bhi, low_side)`` clears."""
        d = self.dim
        old_lo, old_hi = row[:d], row[d:2 * d]
        new_lo, new_hi = np.minimum(old_lo, lo), np.maximum(old_hi, hi)
        masks, inners, blo, bhi, low = self._row_bites(row)
        anchored = np.all(np.where(low, new_lo == old_lo, new_hi == old_hi),
                          axis=-1)
        survive = anchored & ~hit(blo, bhi, low)
        keep = np.zeros((1, 1 << d), dtype=bool)
        keep[0, masks[survive]] = True
        full = np.zeros((1, 1 << d, d))
        full[0, masks[survive]] = inners[survive]
        return self.pred_codec().write(new_lo[None], new_hi[None], keep,
                                       full)[0]

    def widen_key(self, row: np.ndarray, key: np.ndarray) -> Any:
        if self.covers_key(row, key):
            return row
        return self._widened(row, key, key,
                             lambda blo, bhi, low: in_bites(key, blo, bhi,
                                                            low))

    def widen(self, row: np.ndarray, child_row: np.ndarray) -> Any:
        if self.covers(row, child_row):
            return row
        lo, hi = self.row_bounds(child_row)
        return self._widened(row, lo, hi,
                             lambda blo, bhi, low: _blocks(lo, hi, blo, bhi,
                                                           low))

    def pick_split(self, node: Node, min_entries: int) -> Tuple[Any, Any]:
        if self.split_method == "quadratic":
            return super().pick_split(node, min_entries)
        return gap_split(*self.split_bounds(node), min_entries)

    # -- distances ---------------------------------------------------------------

    # min_dists_node is inherited from RTreeExtension: it uses the cached
    # MBR bounds as the cheap lower bound; refine_dist tightens lazily.

    def refine_dist(self, row: np.ndarray, q: np.ndarray,
                    lower_bound: float) -> float:
        """The bite-aware distance: :func:`bitten_min_dist`'s box search
        over the row's MBR and bites."""
        d = self.dim
        _, _, blo, bhi, blow = self._row_bites(row)
        return max(lower_bound, bitten_min_dist(row[:d], row[d:2 * d], blo,
                                                bhi, blow, q))

    def bite_pack(self, node: Node):
        """All entries' bites stacked flat, memoized on the node.

        Returns ``(blo, bhi, blow, counts, offsets)``: ``(T, dim)`` bite
        bounds / side flags for the ``T`` bites across the node, with
        entry ``i`` owning the slice ``offsets[i]:offsets[i+1]``.  Built
        from the predicate block by the codec's
        :meth:`~repro.storage.codecs.JBCodec.bite_rows`, the arithmetic
        :meth:`_row_bites` reads one row with, in entry-major slot order.
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

        :func:`bitten_min_dist`'s box search terminates on its very
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
        inside = in_bites(np.clip(q, lo, hi)[:, ent, :], blo, bhi, blow)
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


def _blocks(lo: np.ndarray, hi: np.ndarray, blo: np.ndarray,
            bhi: np.ndarray, blow: np.ndarray) -> np.ndarray:
    """Which stacked half-open bites meet the closed box ``[lo, hi]``
    (closed on the MBR-corner side, open on the inner face)."""
    return np.all(np.where(blow, (lo < bhi) & (hi >= blo),
                           (lo <= bhi) & (hi > blo)), axis=-1)
