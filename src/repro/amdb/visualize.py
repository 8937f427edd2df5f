"""Node visualization utilities (the paper's Figure 10 analog).

Amdb's GUI shows individual 2-D R-tree nodes: the contained points and
their MBR, revealing the empty corner regions that motivate the JB/XJB
predicates.  We provide the data side of that picture: per-leaf corner
emptiness statistics and an ASCII rendering for terminals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.geometry import Rect
from repro.geometry.bites import bite_volumes, carve_rows


@dataclass
class CornerStats:
    """Empty-corner measurements for one leaf node's point set."""

    page_id: int
    num_points: int
    mbr_volume: float
    #: total volume of the bites carved from all corners
    bitten_volume: float
    #: number of corners with a non-degenerate bite
    bitten_corners: int
    num_corners: int

    @property
    def empty_fraction(self) -> float:
        """Fraction of the MBR volume that is bite-removable."""
        if self.mbr_volume == 0:
            return 0.0
        return min(1.0, self.bitten_volume / self.mbr_volume)


def corner_stats(tree) -> List[CornerStats]:
    """Per-leaf empty-corner statistics for any rect-footprint tree."""
    stats = []
    for node in tree.leaf_nodes():
        pts = node.keys_array()
        if len(pts) < 2:
            continue
        lo, hi, keep, inners = carve_rows(pts[None], pts[None])
        stats.append(CornerStats(
            page_id=node.page_id,
            num_points=len(pts),
            mbr_volume=Rect(lo[0], hi[0]).volume(),
            bitten_volume=sum(bite_volumes(lo, hi, inners)[keep].tolist()),
            bitten_corners=int(keep.sum()),
            num_corners=keep.shape[1],
        ))
    return stats


def render_leaf_ascii(points: np.ndarray, width: int = 48,
                      height: int = 18) -> str:
    """ASCII plot of a 2-D leaf: '.' empty MBR cells, '*' data points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[1] != 2:
        raise ValueError("ASCII rendering is 2-D only")
    rect = Rect.from_points(pts)
    extent = np.maximum(rect.extents, 1e-12)
    grid = [["."] * width for _ in range(height)]
    for p in pts:
        x = int((p[0] - rect.lo[0]) / extent[0] * (width - 1))
        y = int((p[1] - rect.lo[1]) / extent[1] * (height - 1))
        grid[height - 1 - y][x] = "*"
    border = "+" + "-" * width + "+"
    body = "\n".join("|" + "".join(row) + "|" for row in grid)
    return f"{border}\n{body}\n{border}"
