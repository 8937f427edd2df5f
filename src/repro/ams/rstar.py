"""An R*-tree-style extension [Beckmann et al. 90].

The paper's footnote 5: "While R*-trees are considered better than
R-trees, bulk-loading the data eliminates any difference between the two
AMs."  This extension exists to test that claim: it differs from the
plain R-tree in its split (margin-driven axis choice, overlap-minimizing
cut) and its penalty (overlap enlargement at the leaf-routing level),
which only matter under insertion loading.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from repro.ams.rtree import RTreeExtension
from repro.gist.node import Node


class RStarTreeExtension(RTreeExtension):
    """R-tree with R*-style split and penalty."""

    name = "rstar"

    def pick_split(self, node: Node, min_entries: int) -> Tuple[Any, Any]:
        return rstar_split(*self.split_bounds(node), min_entries)


def rstar_split(los: np.ndarray, his: np.ndarray,
                min_entries: int) -> Tuple[Any, Any]:
    """The R*-tree split of the ``(n, dim)`` entry bounds ``los``/``his``
    into two index arrays: choose the axis minimizing total margin over
    all distributions, then the cut minimizing overlap (ties: volume)."""
    n = len(los)
    if n < 2:
        raise ValueError("cannot split fewer than two entries")
    min_entries = max(1, min(min_entries, n // 2))

    dim = los.shape[1]

    def distributions(axis):
        """Candidate (order, cut) pairs along one axis (lo and hi sorts)."""
        for key in (los[:, axis], his[:, axis]):
            order = np.argsort(key, kind="stable")
            for cut in range(min_entries, n - min_entries + 1):
                yield order, cut

    def group_boxes(order, cut):
        left, right = order[:cut], order[cut:]
        return ((los[left].min(axis=0), his[left].max(axis=0)),
                (los[right].min(axis=0), his[right].max(axis=0)))

    # ChooseSplitAxis: minimize the margin sum.
    best_axis, best_margin = 0, np.inf
    for axis in range(dim):
        margin = 0.0
        for order, cut in distributions(axis):
            (llo, lhi), (rlo, rhi) = group_boxes(order, cut)
            margin += float((lhi - llo).sum() + (rhi - rlo).sum())
        if margin < best_margin:
            best_margin, best_axis = margin, axis

    # ChooseSplitIndex: minimize overlap, then volume.
    best = None
    best_key = (np.inf, np.inf)
    for order, cut in distributions(best_axis):
        (llo, lhi), (rlo, rhi) = group_boxes(order, cut)
        inter = np.clip(np.minimum(lhi, rhi) - np.maximum(llo, rlo),
                        0.0, None)
        overlap = float(np.prod(inter))
        volume = float(np.prod(lhi - llo) + np.prod(rhi - rlo))
        if (overlap, volume) < best_key:
            best_key = (overlap, volume)
            best = (order, cut)

    order, cut = best
    return order[:cut], order[cut:]
