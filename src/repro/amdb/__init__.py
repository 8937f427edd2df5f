"""An amdb-style access method analysis framework [Kornacker et al. 99].

Amdb profiles a GiST executing a workload and explains the page accesses
the workload performed, relative to an idealized access method, through
three loss metrics (paper Table 1):

- **excess coverage loss** — accesses to nodes that held no relevant
  data, caused by inaccurate bounding predicates;
- **utilization loss** — accesses attributable to node storage
  utilization below a target;
- **clustering loss** — accesses caused by relevant data being spread
  over more leaves than an optimal clustering (found here, as in amdb,
  by heuristic hypergraph partitioning) would require.

Workflow: :func:`~repro.amdb.profiler.profile_workload` replays queries
and records per-query access traces; :func:`~repro.amdb.partition.
optimal_clustering` computes the idealized placement;
:func:`~repro.amdb.metrics.compute_losses` produces a
:class:`~repro.amdb.metrics.LossReport`.
"""

from repro.amdb.profiler import (BuildProfile, QueryTrace, WorkloadProfile,
                                 profile_workload)
from repro.amdb.partition import optimal_clustering, Clustering
from repro.amdb.metrics import LossReport, compute_losses
from repro.amdb.report import format_loss_table, format_comparison
from repro.amdb.tree_report import TreeReport, tree_report, format_tree_report
from repro.amdb.export import report_to_dict, reports_to_csv, reports_to_json

__all__ = [
    "BuildProfile",
    "QueryTrace",
    "WorkloadProfile",
    "profile_workload",
    "optimal_clustering",
    "Clustering",
    "LossReport",
    "compute_losses",
    "format_loss_table",
    "format_comparison",
    "TreeReport",
    "tree_report",
    "format_tree_report",
    "report_to_dict",
    "reports_to_csv",
    "reports_to_json",
]
