"""A Generalized Search Tree (GiST) framework [Hellerstein et al. 95].

The GiST generalizes height-balanced multi-way search trees: leaves hold
``(key, RID)`` pairs, internal nodes hold ``(bounding predicate, child)``
pairs, and the tree's behaviour is specialized by an *extension* — the
set of methods (``union``, ``penalty``, ``pick_split``, distance
bounds, codecs) an access-method designer supplies.  The one query is
k nearest neighbors, so the distance bounds stand in for the GiST's
``consistent``.

This package provides the template algorithms (best-first
nearest-neighbor search, insert with node splitting, delete with
condensation, bulk-load hooks), byte-budgeted nodes backed by the paged
storage substrate, and structural validation.  Concrete access methods
live in :mod:`repro.ams` (traditional) and :mod:`repro.core` (the paper's
custom designs).
"""

from repro.gist.batch import knn_search_batch
from repro.gist.degrade import DegradationReport, QuarantinedPage
from repro.gist.entry import IndexEntry, LeafEntry
from repro.gist.node import Node
from repro.gist.extension import GiSTExtension
from repro.gist.planner import Plan, QueryPlanner
from repro.gist.tree import GiST
from repro.gist.validate import ScrubReport, scrub_file, validate_tree

__all__ = [
    "IndexEntry",
    "LeafEntry",
    "Node",
    "GiSTExtension",
    "GiST",
    "knn_search_batch",
    "validate_tree",
    "scrub_file",
    "ScrubReport",
    "DegradationReport",
    "QuarantinedPage",
    "Plan",
    "QueryPlanner",
]
