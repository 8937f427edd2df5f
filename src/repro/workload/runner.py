"""Workload execution: profile a workload against a tree and summarize.

With ``quarantine=True``, storage corruption encountered mid-run no
longer aborts the workload: corrupt subtrees are pruned, the run
completes, and the result carries a
:class:`~repro.gist.degrade.DegradationReport` with the quarantined
pages and the *measured* degraded recall against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.amdb.metrics import LossReport, compute_losses
from repro.amdb.partition import Clustering
from repro.amdb.profiler import WorkloadProfile, profile_workload
from repro.constants import TARGET_UTILIZATION
from repro.gist.degrade import DegradationReport
from repro.workload.generator import NNWorkload


@dataclass
class WorkloadResult:
    """Everything one workload run produces."""

    profile: WorkloadProfile
    report: LossReport
    #: present only for quarantined runs (None = strict mode).
    degradation: Optional[DegradationReport] = None

    @property
    def leaf_ios_per_query(self) -> float:
        return self.report.leaf_ios_per_query

    @property
    def total_ios_per_query(self) -> float:
        return self.report.total_ios / max(self.report.num_queries, 1)

    @property
    def pages_touched_fraction(self) -> float:
        """Distinct pages hit / total tree pages (paper footnote 8)."""
        touched = len(self.profile.pages_touched())
        return touched / max(self.profile.total_pages, 1)

    @property
    def is_degraded(self) -> bool:
        return self.degradation is not None and self.degradation.is_degraded


def run_workload(tree, workload: NNWorkload, vectors: np.ndarray,
                 clustering: Optional[Clustering] = None,
                 target_utilization: float = TARGET_UTILIZATION,
                 quarantine: bool = False) -> WorkloadResult:
    """Profile ``workload`` on ``tree`` and compute the amdb losses.

    ``quarantine=True`` enables degraded-mode execution: the run
    finishes even if pages are corrupt, reporting what was pruned and
    the recall actually achieved.
    """
    degradation = tree.enable_quarantine() if quarantine else None
    profile = profile_workload(tree, workload.queries, workload.k)
    report = compute_losses(
        profile, keys=vectors, rids=list(range(len(vectors))),
        clustering=clustering, target_utilization=target_utilization)
    if degradation is not None:
        degradation.recall = _measured_recall(profile, workload.k, vectors)
    return WorkloadResult(profile=profile, report=report,
                          degradation=degradation)


def _measured_recall(profile: WorkloadProfile, k: int,
                     vectors: np.ndarray) -> float:
    """Fraction of the true k nearest neighbors each query returned.

    Brute force against ``vectors``; ties at the k-th distance count a
    returned rid as correct, so an undamaged run scores 1.0.
    """
    hits = total = 0
    k_eff = min(k, len(vectors))
    if k_eff == 0:
        return 1.0
    for trace in profile.traces:
        d = ((vectors - trace.query) ** 2).sum(axis=1)
        kth = np.partition(d, k_eff - 1)[k_eff - 1]
        got = np.fromiter((rid for rid in trace.result_rids), dtype=np.int64,
                          count=len(trace.result_rids))
        hits += int((d[got] <= kth + 1e-12).sum()) if len(got) else 0
        total += k_eff
    return hits / max(total, 1)
