"""Workload generation, execution, and recall evaluation (section 3).

The paper uses an artificial workload of nearest-neighbor queries whose
foci are randomly chosen blobs — broad enough that amdb's optimal
clustering is well-founded ("every blob in the data set should, on
average, be retrieved by several queries").
"""

from repro.workload.generator import NNWorkload, make_workload
from repro.workload.runner import run_workload, WorkloadResult
from repro.workload.recall import recall, recall_curve, RecallPoint

__all__ = [
    "NNWorkload",
    "make_workload",
    "run_workload",
    "WorkloadResult",
    "recall",
    "recall_curve",
    "RecallPoint",
]
