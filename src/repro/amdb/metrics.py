"""Amdb loss metrics (paper Table 1).

For each query *q*, let ``A_q`` be the leaves it accessed, ``R_q`` the
accessed leaves holding at least one of its results (with conservative
BPs and exact NN search every result-holding leaf *is* accessed), and
``opt_q`` the blocks its results span in the optimal clustering:

- excess coverage loss ``EC_q = |A_q| - |R_q|`` — empty page hits caused
  by sloppy bounding predicates;
- utilization loss ``UL_q = sum over l in R_q of
  max(0, 1 - util(l)/target)`` — the fraction of each productive access
  that a target-utilization packing would have saved;
- clustering loss ``CL_q = max(0, |R_q| - UL_q - opt_q)`` — the
  remaining gap to the idealized clustering.

Inner-level excess coverage counts accessed inner pages whose subtree
held no result.  See DESIGN.md section 3 for how this maps onto the amdb
technical report's decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.constants import TARGET_UTILIZATION
from repro.amdb.partition import Clustering, optimal_clustering
from repro.amdb.profiler import WorkloadProfile


@dataclass
class LossReport:
    """Workload-level loss summary for one access method."""

    tree_name: str
    num_queries: int
    height: int
    num_leaves: int
    num_inner: int

    total_leaf_ios: int
    total_inner_ios: int

    excess_coverage_leaf: float
    excess_coverage_inner: float
    utilization_loss: float
    clustering_loss: float
    optimal_leaf_ios: float

    #: per-query arrays, index-aligned with the profile's traces
    per_query: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def total_ios(self) -> int:
        return self.total_leaf_ios + self.total_inner_ios

    @property
    def leaf_loss_fractions(self) -> Dict[str, float]:
        """Each leaf-level loss as a fraction of total leaf I/Os
        (the paper's Figure 7 / Figure 14 quantity)."""
        denom = max(self.total_leaf_ios, 1)
        return {
            "excess_coverage": self.excess_coverage_leaf / denom,
            "utilization": self.utilization_loss / denom,
            "clustering": self.clustering_loss / denom,
        }

    @property
    def leaf_ios_per_query(self) -> float:
        return self.total_leaf_ios / max(self.num_queries, 1)

    @property
    def total_pages(self) -> int:
        return self.num_leaves + self.num_inner


def compute_losses(profile: WorkloadProfile,
                   keys: Optional[np.ndarray] = None,
                   rids: Optional[List[int]] = None,
                   clustering: Optional[Clustering] = None,
                   target_utilization: float = TARGET_UTILIZATION,
                   partition_passes: int = 3) -> LossReport:
    """Compute amdb losses for a profiled workload.

    The optimal clustering is taken from ``clustering`` if given (so
    several AMs over the same data and workload can share one), else
    computed from ``keys``/``rids`` via hypergraph partitioning.
    """
    if clustering is None:
        if keys is None or rids is None:
            raise ValueError(
                "pass either a precomputed clustering or keys and rids")
        block_capacity = max(1, int(target_utilization
                                    * profile.leaf_capacity))
        clustering = optimal_clustering(
            keys, rids, [t.result_rids for t in profile.traces],
            block_capacity, passes=partition_passes)

    n = profile.num_queries
    ec_leaf = np.zeros(n)
    ec_inner = np.zeros(n)
    util_loss = np.zeros(n)
    clust_loss = np.zeros(n)
    opt_ios = np.zeros(n)
    leaf_ios = np.zeros(n)

    target = target_utilization
    for i, trace in enumerate(profile.traces):
        accessed = set(trace.leaf_accesses)
        result_leaves = profile.result_leaves(trace)
        # Conservative BPs guarantee result leaves are accessed; guard
        # against floating-point surprises anyway.
        productive = accessed & result_leaves

        leaf_ios[i] = len(trace.leaf_accesses)
        ec_leaf[i] = len(accessed) - len(productive)

        ul = sum(max(0.0, 1.0 - profile.leaf_utilization[l] / target)
                 for l in productive)
        util_loss[i] = ul

        opt = clustering.spans(trace.result_rids)
        opt_ios[i] = opt
        clust_loss[i] = max(0.0, len(productive) - ul - opt)

        result_pages = profile.result_subtree_pages(trace)
        ec_inner[i] = sum(1 for p in trace.inner_accesses
                          if p not in result_pages)

    return LossReport(
        tree_name=profile.tree_name,
        num_queries=n,
        height=profile.height,
        num_leaves=profile.num_leaves,
        num_inner=profile.num_inner,
        total_leaf_ios=profile.total_leaf_ios,
        total_inner_ios=profile.total_inner_ios,
        excess_coverage_leaf=float(ec_leaf.sum()),
        excess_coverage_inner=float(ec_inner.sum()),
        utilization_loss=float(util_loss.sum()),
        clustering_loss=float(clust_loss.sum()),
        optimal_leaf_ios=float(opt_ios.sum()),
        per_query={
            "leaf_ios": leaf_ios,
            "excess_coverage_leaf": ec_leaf,
            "excess_coverage_inner": ec_inner,
            "utilization_loss": util_loss,
            "clustering_loss": clust_loss,
            "optimal_leaf_ios": opt_ios,
        },
    )
