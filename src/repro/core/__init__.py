"""The paper's contribution: customized access methods for Blobworld.

Three R-tree variants whose bounding predicates remove the empty MBR
corner volume that expanding nearest-neighbor query spheres clip
(section 5):

- :class:`~repro.core.amap.AMapExtension` — two minimum-total-volume
  rectangles per predicate (MAP), approximated by sampling random
  bipartitions (aMAP, section 5.1);
- :class:`~repro.core.jbtree.JBExtension` — "Jagged Bites": the MBR plus
  the largest safe bite at every corner (section 5.2);
- :class:`~repro.core.xjb.XJBExtension` — "Top X Jagged Bites": only the
  X largest bites, keeping the predicate small enough to limit tree
  height (section 5.3), plus the automatic X selector the paper lists as
  future work.

:mod:`repro.core.api` is the high-level entry point: build any of the six
access methods over a vector set, run workloads, and produce amdb-style
loss analyses.
"""

from repro.core.amap import AMapExtension
from repro.core.jbtree import JBExtension
from repro.core.xjb import XJBExtension, select_x
from repro.core.api import build_index, analyze_workload, compare_methods, EXTENSIONS

__all__ = [
    "AMapExtension",
    "JBExtension",
    "XJBExtension",
    "select_x",
    "build_index",
    "analyze_workload",
    "compare_methods",
    "EXTENSIONS",
]
