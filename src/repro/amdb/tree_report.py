"""Structural tree statistics for the AM designer's eye.

Amdb's visualization pane summarizes the tree an analysis ran against:
per-level node counts and fill, bounding-predicate geometry (volume,
overlap between siblings), and fanout headroom.  These are the numbers
behind the paper's structural observations — the root's 24-of-80 slack
(section 5), aMAP's halved fanout, JB's height blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass
class LevelStats:
    """Aggregates for one tree level."""

    level: int
    nodes: int
    num_entries: int
    mean_fill: float           # entries / capacity
    mean_utilization: float    # bytes / payload
    #: mean pairwise footprint overlap volume between siblings,
    #: normalized by mean footprint volume (0 = perfectly disjoint)
    sibling_overlap: float


@dataclass
class TreeReport:
    """Whole-tree structural summary."""

    method: str
    height: int
    size: int
    page_size: int
    leaf_capacity: int
    index_capacity: int
    root_fanout: int
    levels: List[LevelStats] = field(default_factory=list)

    @property
    def total_nodes(self) -> int:
        return sum(lvl.nodes for lvl in self.levels)

    @property
    def root_slack(self) -> float:
        """Unused fraction of the root page (section 5's observation)."""
        if self.index_capacity == 0 or self.height <= 1:
            return 0.0
        return 1.0 - self.root_fanout / self.index_capacity


def _sibling_overlap(tree, node) -> float:
    """Mean pairwise overlap of a node's children's footprints."""
    ext = tree.ext
    if not hasattr(ext, "block_bounds"):
        return float("nan")
    lo, hi = ext.block_bounds(node.pred_block())
    if len(lo) < 2:
        return 0.0
    vols = np.maximum(np.prod(hi - lo, axis=1), 0.0)
    mean_vol = float(np.mean(vols))
    if mean_vol <= 0:
        return 0.0
    first, second = np.triu_indices(len(lo), 1)
    edges = (np.minimum(hi[first], hi[second])
             - np.maximum(lo[first], lo[second]))
    overlaps = np.where((edges < 0).any(axis=1), 0.0,
                        np.prod(edges, axis=1))
    return float(np.mean(overlaps)) / mean_vol


def tree_report(tree) -> TreeReport:
    """Collect structural statistics from a built tree."""
    report = TreeReport(
        method=tree.ext.name,
        height=tree.height,
        size=tree.size,
        page_size=tree.page_size,
        leaf_capacity=tree.leaf_capacity,
        index_capacity=tree.index_capacity,
        root_fanout=tree.root_fanout(),
    )
    by_level: Dict[int, dict] = {}
    for node in tree.iter_nodes():
        slot = by_level.setdefault(node.level, {
            "nodes": 0, "entries": 0, "util": [], "overlap": []})
        slot["nodes"] += 1
        slot["entries"] += len(node)
        slot["util"].append(tree.node_utilization(node))
        if not node.is_leaf:
            slot["overlap"].append(_sibling_overlap(tree, node))
    for level in sorted(by_level):
        slot = by_level[level]
        capacity = tree.capacity(level)
        report.levels.append(LevelStats(
            level=level,
            nodes=slot["nodes"],
            num_entries=slot["entries"],
            mean_fill=slot["entries"] / (slot["nodes"] * capacity),
            mean_utilization=float(np.mean(slot["util"])),
            sibling_overlap=_mean_overlap(slot["overlap"]),
        ))
    return report


def _mean_overlap(overlaps: List[float]) -> float:
    """Mean sibling overlap of a level: 0 for a level with no inner
    node, NaN when no node there has a footprint (an SS-tree level)."""
    if not overlaps:
        return 0.0
    known = [o for o in overlaps if o == o]
    return float(np.mean(known)) if known else float("nan")


def format_tree_report(report: TreeReport) -> str:
    """Human-readable rendering of a :class:`TreeReport`."""
    lines = [
        f"{report.method}: {report.size} entries, height "
        f"{report.height}, {report.total_nodes} nodes, "
        f"{report.page_size} B pages",
        f"fanout: leaf {report.leaf_capacity}, index "
        f"{report.index_capacity}; root {report.root_fanout} children "
        f"({report.root_slack:.0%} slack)",
        f"{'level':>6}{'nodes':>7}{'entries':>9}{'fill':>7}"
        f"{'util':>7}{'overlap':>9}",
    ]
    for lvl in sorted(report.levels, key=lambda s: -s.level):
        lines.append(f"{lvl.level:>6}{lvl.nodes:>7}{lvl.num_entries:>9}"
                     f"{lvl.mean_fill:>7.2f}{lvl.mean_utilization:>7.2f}"
                     f"{lvl.sibling_overlap:>9.3f}")
    return "\n".join(lines)
