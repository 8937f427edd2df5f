"""Cost-based routing between index traversal and a flat-file scan.

The paper's section 3.2 break-even analysis is usually quoted as a
design-time verdict: an access method must touch fewer than ~1/15 of
the leaf pages or "simply scanning a flat file" wins.  This module
turns that analysis into a *run-time* decision.  Before stage one of a
query batch, :class:`QueryPlanner` estimates the pages the tree
traversal will touch, prices both executions with the same
:class:`~repro.storage.iomodel.DiskModel` that backs the break-even
math, and routes the batch to whichever is modeled cheaper:

- **tree**: per query, a root-to-leaf descent (``height - 1`` random
  inner reads) plus enough leaf pages to surface ``num_blobs``
  candidates at the tree's observed fill, inflated by an ``overscan``
  factor for the pages k-NN expands but does not harvest.  Pages
  shared across the batch are capped at the tree's page census — a
  batch cannot read more distinct pages than exist.
- **scan**: one sequential pass over the flat file (the whole batch
  shares a single pass; the scan kernel is vectorized across queries).

A quarantined or degraded tree always routes to the scan: its answers
are known-lossy while the flat file is complete, so the planner treats
correctness as infinitely expensive.

``PlannerConfig.from_breakeven_json`` loads the constants the
``bench_scan_breakeven`` benchmark measures, so deployments can replace
the Barracuda defaults with observed hardware behavior.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.storage.iomodel import DiskModel


@dataclass(frozen=True)
class PlannerConfig:
    """Tunable constants of the traversal cost estimate.

    ``overscan`` multiplies the minimal leaf-page count (candidates /
    fill): best-first k-NN reads boundary pages it never harvests from,
    and quantized leaves add cell-bound slack.  ``leaf_fill`` is the
    assumed entries-per-leaf fraction of capacity when the tree cannot
    be asked (it usually can).  ``scan_bias_ms`` shifts the comparison:
    positive values make the planner prefer the tree on near-ties
    (scans hold no index statistics to reuse).
    """

    overscan: float = 1.35
    leaf_fill: float = 0.7
    scan_bias_ms: float = 0.0
    model: DiskModel = field(default_factory=DiskModel)

    @classmethod
    def from_breakeven_json(cls, path: str) -> "PlannerConfig":
        """Build a config from a ``BENCH_scan_breakeven.json`` file.

        The benchmark (``benchmarks/bench_scan_breakeven.py``) emits a
        ``planner_defaults`` object with the fields of this dataclass
        plus the disk model parameters it priced them under; unknown
        fields are ignored so the benchmark may grow new outputs
        without breaking older readers.
        """
        with open(path) as f:
            doc = json.load(f)
        defaults = doc.get("planner_defaults", doc)
        model_doc = defaults.get("model", {})
        model = DiskModel(**{k: model_doc[k] for k in
                             ("seek_ms", "rotational_ms",
                              "throughput_mb_s", "page_size")
                             if k in model_doc})
        kwargs: Dict[str, Any] = {
            k: float(defaults[k])
            for k in ("overscan", "leaf_fill", "scan_bias_ms")
            if k in defaults}
        return cls(model=model, **kwargs)


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


class QueryPlanner:
    """Prices a candidate batch against ``tree`` and a flat scan.

    Construct once per (tree, flat file) pairing; :meth:`plan_batch`
    is cheap enough to call per batch.  The tree's superblock-backed
    page census (``num_nodes``/``nodes_by_level``) and its leaf
    capacity feed the estimate; the flat file contributes only its
    sequential page count.
    """

    def __init__(self, tree: Any, flat: Any,
                 config: Optional[PlannerConfig] = None) -> None:
        self.tree = tree
        self.flat = flat
        self.config = config or PlannerConfig()
        # Census once: page counts only change under mutation, and a
        # mutated tree gets a fresh planner with its fresh snapshot.
        by_level = tree.nodes_by_level()
        self._num_leaves = by_level.get(0, 0)
        self._num_pages = sum(by_level.values())
        size = getattr(tree, "size", 0)
        if self._num_leaves and size:
            self._avg_leaf_entries = max(1.0, size / self._num_leaves)
        else:
            self._avg_leaf_entries = max(
                1.0, self.config.leaf_fill * tree.leaf_capacity)

    # -- estimates -----------------------------------------------------------

    def tree_pages_estimate(self, num_queries: int, num_blobs: int) -> int:
        """Distinct random page reads a batch of traversals costs."""
        height = max(1, getattr(self.tree, "height", 1))
        leaves = math.ceil(num_blobs / self._avg_leaf_entries)
        per_query = (height - 1) + leaves * self.config.overscan
        est = math.ceil(num_queries * per_query)
        # knn_search_batch reads each page once per block, so the
        # batch can never read more distinct pages than the tree holds.
        return min(est, max(self._num_pages, 1))

    def plan_batch(self, num_queries: int, num_blobs: int) -> Plan:
        """Route one batch; returns the decision plus its estimates."""
        model = self.config.model
        scan_pages = self.flat.num_pages
        tree_pages = self.tree_pages_estimate(num_queries, num_blobs)
        tree_ms = model.random_reads_ms(tree_pages)
        scan_ms = model.scan_ms(scan_pages) + self.config.scan_bias_ms

        degraded = bool(getattr(self.tree, "quarantine_enabled", False))
        report = getattr(self.tree, "degradation", None)
        degraded = degraded or bool(
            report is not None and getattr(report, "is_degraded", False))
        if degraded:
            choice, reason = "scan", "tree quarantined/degraded"
        elif tree_ms <= scan_ms:
            choice, reason = "tree", (
                f"{tree_pages} random reads beat a "
                f"{scan_pages}-page scan")
        else:
            choice, reason = "scan", (
                f"{tree_pages} random reads cost more than a "
                f"{scan_pages}-page scan")
        return Plan(choice=choice, num_queries=num_queries,
                    num_blobs=num_blobs, est_tree_pages=tree_pages,
                    est_scan_pages=scan_pages, est_tree_ms=tree_ms,
                    est_scan_ms=scan_ms, reason=reason)
