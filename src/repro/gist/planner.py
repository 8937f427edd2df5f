"""Cost-based routing between index traversal and a flat-file scan.

The paper's section 3.2 break-even analysis is a disk argument: touch
fewer than ~1/15 of the leaf pages or "simply scanning a flat file"
wins.  That arithmetic stays in :class:`~repro.storage.iomodel.DiskModel`
as the paper's mode.  This module prices the two executions this
program actually has, in milliseconds of its own kernels, and routes
each batch to the cheaper one:

- **tree**: per query, the pages a best-first k-NN search visits, each
  charged :data:`HIT_MS` when the node is resident or :data:`MISS_MS`
  when it must be read, CRC-checked and decoded, plus
  :data:`ENTRY_MS` for every leaf entry it scores.  Visits come from the
  page census (nodes per level, entries per leaf) by the Minkowski-sum
  argument: a query ball holding ``k`` keys overlaps
  ``(1 + (k / m) ** (1 / d)) ** d`` leaves of ``m`` keys each
  (``d`` = :data:`SPREAD`), and each level above is overlapped the same
  way by the nodes visited below it.  A block reads each distinct page
  through the store once (:func:`repro.gist.batch.knn_search_batch`),
  so only those reads can miss.
- **scan**: :meth:`~repro.ams.flatfile.FlatFile.knn_batch`, linear in
  rows x queries, plus a term per pass of up to
  :data:`~repro.ams.flatfile.QUERIES_PER_PASS` queries and one per
  result it returns.

The constants are fitted to a wall-clock table of both routes at
4,000 to 221,231 keys, Q = 1 to 128, measured on a 2-core x86 host
(EXPERIMENTS.md E10, DESIGN.md section 12).  They are ratios between
this program's kernels, so a host that runs everything slower moves
both prices together; no probe runs at open, and a plan depends on the
census, the store and the flat file's rows only, never on a timer.

A quarantined or degraded tree always routes to the scan: its answers
are known-lossy while the flat file is complete, so the planner treats
correctness as infinitely expensive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.storage.buffer import BufferPool
from repro.storage.pagefile import MemoryPageFile

#: ms to visit a resident node: bounds, heap pushes, leaf bookkeeping.
HIT_MS = 0.035
#: ms to visit a node the store must read, verify and decode first.
MISS_MS = 0.126
#: ms to score one leaf entry.
ENTRY_MS = 4.2e-5
#: ms per row per pass of the scan (the survivors of its first chunks).
SCAN_PASS_ROW_MS = 1.2e-5
#: ms per row per query of the scan (the distance accumulation).
SCAN_ROW_MS = 6.0e-6
#: ms per result the scan selects, sorts and returns.
SCAN_RESULT_MS = 6.0e-4
#: the dimensionality a k-NN ball spreads over, for the overlap counts.
#: Fitted with the constants above: the corpus's 5-D keys have a lower
#: intrinsic dimension.
SPREAD = 3.2


@dataclass
class Plan:
    """One routing decision with the estimates that produced it."""

    #: "tree" or "scan"
    choice: str
    num_queries: int
    num_blobs: int
    est_tree_pages: int
    est_scan_pages: int
    est_tree_ms: float
    est_scan_ms: float
    reason: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "choice": self.choice,
            "num_queries": self.num_queries,
            "num_blobs": self.num_blobs,
            "est_tree_pages": self.est_tree_pages,
            "est_scan_pages": self.est_scan_pages,
            "est_tree_ms": round(self.est_tree_ms, 3),
            "est_scan_ms": round(self.est_scan_ms, 3),
            "reason": self.reason,
        }


def _overlap(count: float, per_node: float) -> float:
    """Nodes of ``per_node`` items a ball around ``count`` items meets."""
    return float((1.0 + (count / per_node) ** (1.0 / SPREAD)) ** SPREAD)


class QueryPlanner:
    """Prices a candidate batch against ``tree`` and a flat scan.

    Construct once per (tree, flat file) pairing; :meth:`plan_batch`
    is cheap enough to call per batch.  The tree's page census
    (``nodes_by_level``, ``size``) is taken once; the store's residency
    is read per plan, so a pool attached or resized later counts.
    """

    def __init__(self, tree: Any, flat: Any) -> None:
        self.tree = tree
        self.flat = flat
        # Census once: page counts only change under mutation, and a
        # mutated tree gets a fresh planner with its fresh snapshot.
        by_level = tree.nodes_by_level()
        self._levels: List[int] = [by_level.get(level, 0)
                                   for level in range(len(by_level))]
        self._num_leaves = self._levels[0] if self._levels else 0
        self._num_pages = sum(self._levels)
        size = getattr(tree, "size", 0)
        if self._num_leaves and size:
            self._avg_leaf_entries = max(1.0, size / self._num_leaves)
        else:
            self._avg_leaf_entries = float(max(1, tree.leaf_capacity))

    # -- estimates -----------------------------------------------------------

    def residency(self) -> float:
        """Share of the tree's pages a visit finds decoded in memory."""
        store = getattr(self.tree, "store", None)
        if isinstance(store, MemoryPageFile):
            return 1.0
        if isinstance(store, BufferPool):
            return min(1.0, store.capacity / max(self._num_pages, 1))
        return 0.0

    def visits_per_level(self, num_blobs: int) -> List[float]:
        """Pages one k-NN query visits at each level, leaves first."""
        if not self._num_leaves:
            return []
        visits = [min(self._num_leaves,
                      _overlap(num_blobs, self._avg_leaf_entries))]
        for below, nodes in zip(self._levels, self._levels[1:]):
            visits.append(min(nodes, _overlap(visits[-1], below / nodes)))
        return visits

    def tree_pages_estimate(self, num_queries: int, num_blobs: int) -> int:
        """Distinct pages a block of traversals reads through the store.

        Each query visits ``v`` of a level's ``n`` nodes; a block shares
        its decoded nodes, so it reads ``n * (1 - (1 - v/n) ** Q)`` of
        them — never more pages than the tree holds.
        """
        return math.ceil(self._distinct_reads(
            num_queries, self.visits_per_level(num_blobs)))

    def _distinct_reads(self, num_queries: int,
                        visits: List[float]) -> float:
        return sum(nodes * (1.0 - (1.0 - v / nodes) ** num_queries)
                   for nodes, v in zip(self._levels, visits))

    def tree_ms(self, num_queries: int, num_blobs: int) -> float:
        """Modelled wall time of the block on the tree route."""
        visits = self.visits_per_level(num_blobs)
        if not visits:
            return 0.0
        total = num_queries * sum(visits)
        misses = (1.0 - self.residency()) \
            * self._distinct_reads(num_queries, visits)
        entries = num_queries * visits[0] * self._avg_leaf_entries
        return (total - misses) * HIT_MS + misses * MISS_MS \
            + entries * ENTRY_MS

    def scan_ms(self, num_queries: int, num_blobs: int) -> float:
        """Modelled wall time of the block on the scan route."""
        from repro.ams.flatfile import QUERIES_PER_PASS
        rows = len(self.flat.vectors)
        passes = math.ceil(num_queries / QUERIES_PER_PASS)
        return passes * rows * SCAN_PASS_ROW_MS \
            + num_queries * (rows * SCAN_ROW_MS
                             + min(num_blobs, rows) * SCAN_RESULT_MS)

    def plan_batch(self, num_queries: int, num_blobs: int) -> Plan:
        """Route one batch; returns the decision plus its estimates."""
        scan_pages = self.flat.num_pages
        tree_pages = self.tree_pages_estimate(num_queries, num_blobs)
        tree_ms = self.tree_ms(num_queries, num_blobs)
        scan_ms = self.scan_ms(num_queries, num_blobs)

        degraded = bool(getattr(self.tree, "quarantine_enabled", False))
        report = getattr(self.tree, "degradation", None)
        degraded = degraded or bool(
            report is not None and getattr(report, "is_degraded", False))
        if degraded:
            choice, reason = "scan", "tree quarantined/degraded"
        elif tree_ms <= scan_ms:
            choice, reason = "tree", (
                f"{tree_pages} page reads price below a "
                f"{scan_pages}-page scan")
        else:
            choice, reason = "scan", (
                f"{tree_pages} page reads price above a "
                f"{scan_pages}-page scan")
        return Plan(choice=choice, num_queries=num_queries,
                    num_blobs=num_blobs, est_tree_pages=tree_pages,
                    est_scan_pages=scan_pages, est_tree_ms=tree_ms,
                    est_scan_ms=scan_ms, reason=reason)
